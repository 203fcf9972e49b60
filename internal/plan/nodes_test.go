package plan

import (
	"slices"
	"testing"
)

// rebuild copies n with Leaf and Join2: the same structure, in no table.
func rebuild(n *Node) *Node {
	if n.IsLeaf() {
		return Leaf(n.Table, n.Scan)
	}
	return Join2(n.Join, rebuild(n.Left), rebuild(n.Right))
}

// TestNodesInvariants walks the whole state space of a three-relation query
// (cross products allowed) through one table and holds every node it reaches
// to the table's contract: one pointer and one id per structural hash, ids
// dense and above the children's, and the facts Leaf and Join2 derive for
// the same structure. Every node rebuilt outside the table interns to the
// table's own, as does the same node drawn from another table.
func TestNodesInvariants(t *testing.T) {
	tab := NewNodes()
	byHash := map[[2]uint64]*Node{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if prev, ok := byHash[n.Hash()]; ok {
			if prev != n {
				t.Fatalf("%s: two nodes with one hash in one table", n)
			}
			return
		}
		byHash[n.Hash()] = n
		if !n.IsLeaf() {
			visit(n.Left)
			visit(n.Right)
		}
	}
	opts := ChildrenOptions{AllowCrossProducts: true}
	seen := map[[2]uint64]bool{}
	queue := []*Plan{Initial(threeWayQuery(), tab)}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p.Hash()] {
			continue
		}
		seen[p.Hash()] = true
		for _, r := range p.Roots {
			visit(r)
		}
		queue = append(queue, p.Children(tab, opts)...)
	}
	if len(seen) < 500 || tab.Len() != len(byHash) {
		t.Fatalf("walked %d states reaching %d distinct nodes; the table holds %d", len(seen), len(byHash), tab.Len())
	}

	other := NewNodes()
	for id := int32(0); id < int32(tab.Len()); id++ {
		n := tab.Node(id)
		if byHash[n.Hash()] != n || tab.ID(n) != id {
			t.Fatalf("id %d: node %s is not the one the states hold, or has id %d", id, n, tab.ID(n))
		}
		if !n.IsLeaf() && (tab.ID(n.Left) >= id || tab.ID(n.Right) >= id || tab.Intern(n.Left) != n.Left || tab.Intern(n.Right) != n.Right) {
			t.Fatalf("%s: children are not the table's, or not numbered before it", n)
		}
		free := rebuild(n)
		if free.Hash() != n.Hash() || free.NumNodes() != n.NumNodes() || free.NumUnspecified() != n.NumUnspecified() ||
			!slices.Equal(free.Tables(), n.Tables()) || free.String() != n.String() {
			t.Fatalf("%s: hash %x, %d nodes, %d unspecified, tables %v; Leaf/Join2 build %x, %d, %d, %v",
				n, n.Hash(), n.NumNodes(), n.NumUnspecified(), n.Tables(), free.Hash(), free.NumNodes(), free.NumUnspecified(), free.Tables())
		}
		if tab.Intern(free) != n || tab.ID(free) != id {
			t.Fatalf("%s: a copy built by Leaf/Join2 does not intern to the table's node", n)
		}
		if tab.Intern(other.Intern(free)) != n {
			t.Fatalf("%s: another table's node does not intern to the table's node", n)
		}
	}
	if tab.Len() != len(byHash) {
		t.Fatalf("interning nodes the table already has grew it from %d to %d", len(byHash), tab.Len())
	}
}

// TestChildrenReuseTableNodes: one join reached from two different parents
// is one node, and so is the same join built outside the table and interned.
func TestChildrenReuseTableNodes(t *testing.T) {
	q := threeWayQuery()
	tab := NewNodes()
	mk, ti := tab.Leaf("movie_keyword", TableScan), tab.Leaf("title", IndexScan)
	parents := []*Plan{
		{Query: q, Roots: []*Node{mk, ti, tab.Leaf("keyword", UnspecifiedScan)}},
		{Query: q, Roots: []*Node{tab.Leaf("keyword", TableScan), mk, ti}},
	}
	var got []*Node
	for _, p := range parents {
		for _, c := range p.Children(tab, ChildrenOptions{}) {
			for _, r := range c.Roots {
				if !r.IsLeaf() && r.Join == HashJoin && r.Left == mk && r.Right == ti {
					got = append(got, r)
				}
			}
		}
	}
	if len(got) != 2 || got[0] != got[1] {
		t.Fatalf("the join reached from %d parents is %d nodes, want one node from each of 2", len(parents), len(got))
	}
	if free := Join2(HashJoin, Leaf("movie_keyword", TableScan), Leaf("title", IndexScan)); tab.Intern(free) != got[0] {
		t.Fatalf("interning %s built by Join2 returned another node than Children's", free)
	}
}

package plan

import (
	"fmt"
	"strings"
	"testing"

	"neo/internal/datagen"
	"neo/internal/query"
	"neo/internal/storage"
)

func threeWayQuery() *query.Query {
	return query.New("q3",
		[]string{"title", "movie_keyword", "keyword"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
		},
		[]query.Predicate{
			{Table: "keyword", Column: "keyword", Op: query.Eq, Value: storage.StringValue("love")},
		})
}

func TestInitialPlan(t *testing.T) {
	q := threeWayQuery()
	p := Initial(q, NewNodes())
	if len(p.Roots) != 3 {
		t.Fatalf("Initial has %d roots, want 3", len(p.Roots))
	}
	if p.IsComplete() {
		t.Errorf("initial plan should not be complete")
	}
	if p.NumUnspecified() != 3 {
		t.Errorf("NumUnspecified = %d, want 3", p.NumUnspecified())
	}
	for _, r := range p.Roots {
		if !r.IsLeaf() || r.Scan != UnspecifiedScan {
			t.Errorf("initial roots should all be unspecified scans, got %s", r)
		}
	}
}

func TestNodeHelpers(t *testing.T) {
	n := Join2(LoopJoin,
		Join2(MergeJoin, Leaf("d", TableScan), Leaf("a", TableScan)),
		Leaf("c", IndexScan))
	if n.IsLeaf() {
		t.Errorf("join node should not be a leaf")
	}
	tables := n.Tables()
	if len(tables) != 3 || tables[0] != "a" || tables[1] != "c" || tables[2] != "d" {
		t.Errorf("Tables = %v", tables)
	}
	if n.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5", n.NumNodes())
	}
	if n.NumUnspecified() != 0 {
		t.Errorf("NumUnspecified = %d, want 0", n.NumUnspecified())
	}
	s := n.String()
	for _, want := range []string{"T(d)", "⋈M", "T(a)", "⋈L", "I(c)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	count := 0
	n.Walk(func(*Node) { count++ })
	if count != 5 {
		t.Errorf("Walk visited %d nodes, want 5", count)
	}
}

func TestPaperExampleNotation(t *testing.T) {
	// The partial plan from Figure 2: [(T(D) ⋈M T(A)) ⋈L I(C)], [U(B)]
	p := &Plan{
		Query: query.New("fig2", []string{"A", "B", "C", "D"}, nil, nil),
		Roots: []*Node{
			Join2(LoopJoin, Join2(MergeJoin, Leaf("D", TableScan), Leaf("A", TableScan)), Leaf("C", IndexScan)),
			Leaf("B", UnspecifiedScan),
		},
	}
	if p.IsComplete() {
		t.Errorf("figure 2 plan is partial")
	}
	if p.NumUnspecified() != 1 {
		t.Errorf("NumUnspecified = %d, want 1", p.NumUnspecified())
	}
	s := p.String()
	if !strings.Contains(s, "U(B)") {
		t.Errorf("String %q should contain U(B)", s)
	}
}

func TestChildrenFromInitial(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := threeWayQuery()
	tab := NewNodes()
	p := Initial(q, tab)
	kids := p.Children(tab, ChildrenOptions{Catalog: cat})
	if len(kids) == 0 {
		t.Fatalf("initial plan should have children")
	}
	// Expected: scan specifications for the first root (table scan always,
	// index scan when usable) plus joins between connected roots
	// (title-movie_keyword and movie_keyword-keyword, both directions, 3 ops).
	scanKids := 0
	joinKids := 0
	for _, k := range kids {
		switch {
		case len(k.Roots) == len(p.Roots):
			scanKids++
		case len(k.Roots) == len(p.Roots)-1:
			joinKids++
		default:
			t.Errorf("unexpected child shape: %s", k)
		}
	}
	if scanKids < 1 || scanKids > 2 {
		t.Errorf("scan children = %d, want 1 or 2", scanKids)
	}
	if joinKids != 2*2*NumJoinOps {
		t.Errorf("join children = %d, want %d", joinKids, 2*2*NumJoinOps)
	}
	// keyword and title are not connected: no child should join them directly.
	for _, k := range kids {
		for _, r := range k.Roots {
			if !r.IsLeaf() {
				tabs := r.Tables()
				if len(tabs) == 2 && tabs[0] == "keyword" && tabs[1] == "title" {
					t.Errorf("child joins unconnected relations: %s", k)
				}
			}
		}
	}
}

func TestChildrenCrossProductOption(t *testing.T) {
	q := query.New("q2", []string{"keyword", "title"}, nil, nil)
	tab := NewNodes()
	p := Initial(q, tab)
	if kids := p.Children(tab, ChildrenOptions{}); len(kids) != 1 {
		// Only the scan-specification child (table scan for first root, no
		// catalog so index allowed too). Without catalog indexUsable
		// defaults to true, so 2 scan children.
		if len(kids) != 2 {
			t.Errorf("without cross products, only scan children expected, got %d", len(kids))
		}
	}
	kids := p.Children(tab, ChildrenOptions{AllowCrossProducts: true})
	joins := 0
	for _, k := range kids {
		if len(k.Roots) == 1 {
			joins++
		}
	}
	if joins != 2*NumJoinOps {
		t.Errorf("cross-product joins = %d, want %d", joins, 2*NumJoinOps)
	}
}

func TestCompletePlanHasNoChildren(t *testing.T) {
	q := query.New("q1", []string{"title"}, nil, nil)
	p := &Plan{Query: q, Roots: []*Node{Leaf("title", TableScan)}}
	if !p.IsComplete() {
		t.Fatalf("single specified scan should be complete")
	}
	if kids := p.Children(NewNodes(), ChildrenOptions{}); kids != nil {
		t.Errorf("complete plan should have no children, got %d", len(kids))
	}
}

func TestSearchReachesCompletePlan(t *testing.T) {
	// Repeatedly expanding the first child must terminate in a complete plan.
	cat := datagen.IMDBCatalog()
	tab := NewNodes()
	p := Initial(threeWayQuery(), tab)
	steps := 0
	for !p.IsComplete() {
		kids := p.Children(tab, ChildrenOptions{Catalog: cat})
		if len(kids) == 0 {
			t.Fatalf("dead end at %s", p)
		}
		p = kids[len(kids)-1]
		steps++
		if steps > 50 {
			t.Fatalf("did not reach a complete plan after %d steps", steps)
		}
	}
	if got := len(p.Roots[0].Tables()); got != 3 {
		t.Errorf("complete plan covers %d tables, want 3", got)
	}
}

func TestChildrenCoverBothJoinDirections(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := query.New("q2", []string{"movie_keyword", "title"},
		[]query.JoinPredicate{{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"}}, nil)
	p := &Plan{Query: q, Roots: []*Node{Leaf("movie_keyword", TableScan), Leaf("title", TableScan)}}
	kids := p.Children(NewNodes(), ChildrenOptions{Catalog: cat})
	var sigs []string
	for _, k := range kids {
		sigs = append(sigs, k.Signature())
	}
	joined := strings.Join(sigs, " ")
	if !strings.Contains(joined, "(T(movie_keyword) ⋈H T(title))") ||
		!strings.Contains(joined, "(T(title) ⋈H T(movie_keyword))") {
		t.Errorf("expected both join orientations among children: %v", sigs)
	}
}

func TestSignatureStableUnderRootOrder(t *testing.T) {
	q := threeWayQuery()
	a := &Plan{Query: q, Roots: []*Node{Leaf("title", TableScan), Leaf("keyword", IndexScan)}}
	b := &Plan{Query: q, Roots: []*Node{Leaf("keyword", IndexScan), Leaf("title", TableScan)}}
	if a.Signature() != b.Signature() {
		t.Errorf("signatures should be order-independent: %q vs %q", a.Signature(), b.Signature())
	}
}

func TestStringerEdgeCases(t *testing.T) {
	var n *Node
	if n.String() != "∅" {
		t.Errorf("nil node String = %q", n.String())
	}
	if HashJoin.String() != "HashJoin" || MergeJoin.String() != "MergeJoin" || LoopJoin.String() != "LoopJoin" {
		t.Errorf("JoinOp strings wrong")
	}
	if UnspecifiedScan.String() != "U" || TableScan.String() != "T" || IndexScan.String() != "I" {
		t.Errorf("ScanType strings wrong")
	}
	if !strings.Contains(JoinOp(9).String(), "9") || !strings.Contains(ScanType(9).String(), "9") {
		t.Errorf("unknown enum strings should include the raw value")
	}
}

func TestIndexUsableRespectsCatalog(t *testing.T) {
	cat := datagen.IMDBCatalog()
	// name.country has no index and name.id is not referenced by this
	// query's joins or predicates, so an index scan should not be offered.
	q := query.New("q", []string{"name"}, nil, []query.Predicate{
		{Table: "name", Column: "country", Op: query.Eq, Value: storage.StringValue("us")},
	})
	tab := NewNodes()
	p := Initial(q, tab)
	kids := p.Children(tab, ChildrenOptions{Catalog: cat})
	for _, k := range kids {
		if k.Roots[0].Scan == IndexScan {
			t.Errorf("index scan offered for unindexed predicate column")
		}
	}
	// movie_keyword.movie_id is indexed, so a join query on it should offer
	// an index scan.
	q2 := threeWayQuery()
	kids2 := Initial(q2, tab).Children(tab, ChildrenOptions{Catalog: cat})
	sawIndex := false
	for _, k := range kids2 {
		for _, r := range k.Roots {
			if r.IsLeaf() && r.Scan == IndexScan {
				sawIndex = true
			}
		}
	}
	if !sawIndex {
		t.Errorf("expected at least one index-scan child for an indexed relation")
	}
}

func TestHashStableUnderRootOrder(t *testing.T) {
	q := threeWayQuery()
	a := &Plan{Query: q, Roots: []*Node{Leaf("title", TableScan), Leaf("keyword", IndexScan)}}
	b := &Plan{Query: q, Roots: []*Node{Leaf("keyword", IndexScan), Leaf("title", TableScan)}}
	if a.Hash() != b.Hash() {
		t.Errorf("hashes should be order-independent: %x vs %x", a.Hash(), b.Hash())
	}
	c := &Plan{Query: q, Roots: []*Node{Leaf("keyword", TableScan), Leaf("title", IndexScan)}}
	if a.Hash() == c.Hash() {
		t.Errorf("swapping the scan types between relations must change the hash")
	}
}

// TestHashIdentifiesEveryReachableState walks the whole state space of a
// three-relation query (cross products allowed, so it is as large as it
// gets) and checks that the structural hash and the display signature
// induce the same identity, and that the facts computed at construction
// match a recount.
func TestHashIdentifiesEveryReachableState(t *testing.T) {
	opts := ChildrenOptions{AllowCrossProducts: true}
	bySig := map[string][2]uint64{}
	byHash := map[[2]uint64]string{}
	tab := NewNodes()
	queue := []*Plan{Initial(threeWayQuery(), tab)}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		sig, h := p.Signature(), p.Hash()
		if prev, ok := bySig[sig]; ok {
			if prev != h {
				t.Fatalf("one signature, two hashes: %s", sig)
			}
			continue // reached before, by another path
		}
		if prev, ok := byHash[h]; ok {
			t.Fatalf("hash collision: %s and %s", prev, sig)
		}
		bySig[sig], byHash[h] = h, sig

		nodes, unspec := 0, 0
		for _, r := range p.Roots {
			r.Walk(func(n *Node) {
				nodes++
				if n.IsLeaf() && n.Scan == UnspecifiedScan {
					unspec++
				}
			})
			if got := len(r.Tables()); got != (r.NumNodes()+1)/2 {
				t.Fatalf("%s: %d tables under a tree of %d nodes", r, got, r.NumNodes())
			}
		}
		total := 0
		for _, r := range p.Roots {
			total += r.NumNodes()
		}
		if total != nodes || p.NumUnspecified() != unspec || p.IsComplete() != (len(p.Roots) == 1 && unspec == 0) {
			t.Fatalf("%s: NumNodes %d, NumUnspecified %d, IsComplete %v; recount gives %d nodes, %d unspecified",
				p, total, p.NumUnspecified(), p.IsComplete(), nodes, unspec)
		}
		queue = append(queue, p.Children(tab, opts)...)
	}
	if len(bySig) < 500 {
		t.Errorf("walked only %d states; expected the full space of a three-relation query", len(bySig))
	}
}

// TestChildrenShareUntouchedSubtrees pins the cost model: a child is its
// parent plus one new node (or one re-built spine), never a copy.
func TestChildrenShareUntouchedSubtrees(t *testing.T) {
	q := threeWayQuery()
	tab := NewNodes()
	mk := tab.Join(HashJoin, tab.Leaf("movie_keyword", TableScan), tab.Leaf("title", UnspecifiedScan))
	p := &Plan{Query: q, Roots: []*Node{mk, tab.Leaf("keyword", TableScan)}}
	inParent := map[*Node]bool{}
	for _, r := range p.Roots {
		r.Walk(func(n *Node) { inParent[n] = true })
	}
	for _, child := range p.Children(tab, ChildrenOptions{}) {
		fresh := 0
		for _, r := range child.Roots {
			var count func(n *Node)
			count = func(n *Node) {
				if n == nil || inParent[n] {
					return // shared: nothing below it can be new
				}
				fresh++
				count(n.Left)
				count(n.Right)
			}
			count(r)
		}
		want := 1 // a join of two roots
		if len(child.Roots) == len(p.Roots) {
			want = 2 // the specified leaf and the join above it
		}
		if fresh != want {
			t.Errorf("child %s has %d nodes its parent %s does not share, want %d", child, fresh, p, want)
		}
	}
}

// refChildren is Children as a list of whole plans: every child built on
// its own, scan choices first, then both orientations of every operator for
// every linked pair of roots.
func refChildren(p *Plan, t *Nodes, opts ChildrenOptions) []*Plan {
	if p.IsComplete() {
		return nil
	}
	p = t.internRoots(p)
	n := len(p.Roots)
	var linked []bool
	if !opts.AllowCrossProducts {
		linked = t.linkedRoots(p)
	}
	var out []*Plan
	for ri, r := range p.Roots {
		if r.unspec == 0 {
			continue
		}
		scans := []ScanType{TableScan}
		if p.indexUsable(firstUnspecified(r).Table, opts.Catalog) {
			scans = append(scans, IndexScan)
		}
		for _, st := range scans {
			roots := append([]*Node(nil), p.Roots...)
			roots[ri] = t.specifyFirst(r, st)
			out = append(out, &Plan{Query: p.Query, Roots: roots})
		}
		break
	}
	join := func(i, j int, op JoinOp) *Plan {
		var roots []*Node
		for k, r := range p.Roots {
			if k != i && k != j {
				roots = append(roots, r)
			}
		}
		return &Plan{Query: p.Query, Roots: append(roots, t.Join(op, p.Roots[i], p.Roots[j]))}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if linked != nil && !linked[i*n+j] {
				continue
			}
			for _, op := range AllJoinOps {
				out = append(out, join(i, j, op), join(j, i, op))
			}
		}
	}
	return out
}

// TestChildrenMatchPerChildReference walks every state reachable from a
// three-relation query, with and without cross products, and requires Edits,
// each applied, and refChildren — each on a table of its own, fed the same
// states in the same order — to enumerate the same children in the same
// order with the same roots, hashes and node ids; EditHash must give each
// child's Hash without building it.
func TestChildrenMatchPerChildReference(t *testing.T) {
	for _, cross := range []bool{false, true} {
		opts := ChildrenOptions{AllowCrossProducts: cross}
		got, want := NewNodes(), NewNodes()
		queue := [][2]*Plan{{Initial(threeWayQuery(), got), Initial(threeWayQuery(), want)}}
		seen := map[[2]uint64]bool{}
		for len(queue) > 0 {
			g, w := queue[0][0], queue[0][1]
			queue = queue[1:]
			if seen[g.Hash()] {
				continue
			}
			seen[g.Hash()] = true
			edits, wk := g.Edits(got, opts, nil), refChildren(w, want, opts)
			if len(edits) != len(wk) {
				t.Fatalf("cross=%v %s: %d children, reference %d", cross, g, len(edits), len(wk))
			}
			gk := make([]*Plan, len(edits))
			for c, e := range edits {
				gk[c] = g.Apply(e)
				if gk[c].Query != g.Query || e.Completes(g) != gk[c].IsComplete() {
					t.Fatalf("cross=%v %s child %d: query %p (want %p), Completes %v for %s", cross, g, c, gk[c].Query, g.Query, e.Completes(g), gk[c])
				}
				if h := g.EditHash(g.Hash(), e); h != gk[c].Hash() {
					t.Fatalf("cross=%v %s child %d (%s): EditHash %x, Hash %x", cross, g, c, gk[c], h, gk[c].Hash())
				}
				if gk[c].Hash() != wk[c].Hash() || len(gk[c].Roots) != len(wk[c].Roots) {
					t.Fatalf("cross=%v %s child %d: %s, reference %s", cross, g, c, gk[c], wk[c])
				}
				for i, r := range gk[c].Roots {
					if r.id != wk[c].Roots[i].id || r.hash != wk[c].Roots[i].hash {
						t.Fatalf("cross=%v %s child %d root %d: node %d %s, reference node %d %s",
							cross, g, c, i, r.id, r, wk[c].Roots[i].id, wk[c].Roots[i])
					}
				}
				queue = append(queue, [2]*Plan{gk[c], wk[c]})
			}
		}
		if got.Len() != want.Len() || len(seen) < 100 {
			t.Fatalf("cross=%v: %d states; tables of %d and %d nodes", cross, len(seen), got.Len(), want.Len())
		}
	}
}

// TestJoinsMatchTableSets: over a chain query whose tables include two that
// share a signature bit — where a node's signature alone cannot tell them
// apart — Between finds, for every pair of nodes over disjoint relations,
// the predicate the nodes' table sets pick, and Edits links exactly the
// pairs of roots some predicate connects.
func TestJoinsMatchTableSets(t *testing.T) {
	// The first five names of r0, r1, … and one more whose bit is taken.
	var tables []string
	owner := map[uint64]string{}
	for i := 0; len(tables) < 6; i++ {
		name := fmt.Sprintf("r%d", i)
		bit := tableBit(name)
		if _, taken := owner[bit]; taken != (len(tables) == 5) {
			continue
		}
		owner[bit] = name
		tables = append(tables, name)
	}
	var preds []query.JoinPredicate
	for i := 1; i < len(tables); i++ {
		preds = append(preds, query.JoinPredicate{LeftTable: tables[i-1], LeftColumn: "a", RightTable: tables[i], RightColumn: "b"})
	}
	q := query.New("chain", tables, preds, nil)
	js := JoinsOf(q)
	if js.shared == 0 {
		t.Fatal("no two tables share a bit")
	}
	between := func(a, b *Node) (query.JoinPredicate, bool) {
		as, bs := a.TableSet(), b.TableSet()
		for _, j := range q.Joins {
			if (as[j.LeftTable] && bs[j.RightTable]) || (as[j.RightTable] && bs[j.LeftTable]) {
				return j, true
			}
		}
		return query.JoinPredicate{}, false
	}
	// Every plan state of the query without cross products, as Children
	// reaches them; every node of every state against every other root.
	tab := NewNodes()
	queue := []*Plan{Initial(q, tab)}
	seen := map[[2]uint64]bool{}
	pairs := 0
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p.Hash()] || len(seen) > 2000 {
			continue
		}
		seen[p.Hash()] = true
		for i, a := range p.Roots {
			for j, b := range p.Roots {
				if i == j {
					continue
				}
				got, gok := js.Between(a, b)
				want, wok := between(a, b)
				if got != want || gok != wok {
					t.Fatalf("%s between %s and %s: %v %v, table sets say %v %v", p, a, b, got, gok, want, wok)
				}
				pairs++
			}
		}
		linked := map[[2]int]bool{}
		for _, e := range p.Edits(tab, ChildrenOptions{}, nil) {
			if e.J >= 0 {
				linked[[2]int{int(e.I), int(e.J)}] = true
			}
		}
		for i := range p.Roots {
			for j := i + 1; j < len(p.Roots); j++ {
				if _, ok := between(p.Roots[i], p.Roots[j]); ok != linked[[2]int{i, j}] {
					t.Fatalf("%s roots %d and %d: joined %v, table sets say %v", p, i, j, linked[[2]int{i, j}], ok)
				}
			}
		}
		queue = append(queue, p.Children(tab, ChildrenOptions{})...)
	}
	if pairs < 1000 {
		t.Fatalf("only %d pairs of roots checked", pairs)
	}
}

// Package plan models query execution plans exactly as Section 3.1 of the
// paper defines them: a partial execution plan is a forest of trees whose
// internal nodes are join operators (hash, merge, loop) and whose leaves are
// table scans, index scans, or still-unspecified scans over base relations.
//
// A complete plan has a single tree and no unspecified scans. The Children
// relation (one scan specified, or two roots merged by a join operator) is
// the successor function of Neo's best-first search.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"neo/internal/query"
	"neo/internal/schema"
)

// JoinOp identifies a physical join operator.
type JoinOp int

const (
	// HashJoin builds a hash table on one input and probes with the other.
	HashJoin JoinOp = iota
	// MergeJoin merges two inputs sorted on the join key.
	MergeJoin
	// LoopJoin is a nested-loop join (index nested-loop when the inner is
	// an index scan on the join column).
	LoopJoin
)

// NumJoinOps is |J|, the number of physical join operators.
const NumJoinOps = 3

// AllJoinOps lists every join operator.
var AllJoinOps = []JoinOp{HashJoin, MergeJoin, LoopJoin}

// String implements fmt.Stringer.
func (op JoinOp) String() string {
	switch op {
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case LoopJoin:
		return "LoopJoin"
	default:
		return fmt.Sprintf("JoinOp(%d)", int(op))
	}
}

// ScanType identifies how a leaf accesses its base relation.
type ScanType int

const (
	// UnspecifiedScan is a scan whose access path has not been chosen yet
	// (denoted U(r) in the paper).
	UnspecifiedScan ScanType = iota
	// TableScan reads the whole table (T(r)).
	TableScan
	// IndexScan uses a secondary or primary index (I(r)).
	IndexScan
)

// String implements fmt.Stringer.
func (s ScanType) String() string {
	switch s {
	case UnspecifiedScan:
		return "U"
	case TableScan:
		return "T"
	case IndexScan:
		return "I"
	default:
		return fmt.Sprintf("ScanType(%d)", int(s))
	}
}

// Node is one node of a plan tree. Leaf nodes (Left == Right == nil) are
// scans over Table with access path Scan; internal nodes are joins with
// operator Join.
//
// Nodes are immutable: build them with Leaf and Join2 only and never assign
// a field afterwards (neo-lint's frozenwrite check enforces the second
// half). That is what lets a child plan share every subtree it did not
// change with its parent, lets the plan cache and the experience hold plans
// without copying them, and makes the facts derived at construction — the
// structural hash, the node counts, the relation-set signature — field reads.
type Node struct {
	// Join is the join operator; meaningful only for internal nodes.
	Join JoinOp
	// Scan is the access path; meaningful only for leaf nodes.
	Scan ScanType
	// Table is the scanned base relation; meaningful only for leaf nodes.
	Table string
	// Left and Right are the child subtrees (nil for leaves).
	Left, Right *Node

	hash   [2]uint64
	nodes  int32
	unspec int32
	// rels is the relation set under the node as a 64-bit signature: each
	// table sets the bit relBit picks for it. Two tables can share a bit, so
	// a clear bit proves absence and a set bit sends hasTable down the
	// paths that can hold the table.
	rels uint64
}

// Leaf constructs a scan node.
func Leaf(table string, scan ScanType) *Node {
	unspec := int32(0)
	if scan == UnspecifiedScan {
		unspec = 1
	}
	th := [2]uint64{hashString(leafSeed0, table), hashString(leafSeed1, table)}
	return &Node{Scan: scan, Table: table, hash: leafHash(th, scan), nodes: 1, unspec: unspec, rels: relBit(th[0])}
}

// Join2 constructs a join node over two subtrees.
func Join2(op JoinOp, left, right *Node) *Node {
	return &Node{
		Join: op, Left: left, Right: right,
		hash:   joinHash(op, left.hash, right.hash),
		nodes:  1 + left.nodes + right.nodes,
		unspec: left.unspec + right.unspec,
		rels:   left.rels | right.rels,
	}
}

// IsLeaf reports whether the node is a scan.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Hash returns the node's 128-bit structural hash: a leaf's is derived from
// its table and scan type, a join's from its operator and its children's
// hashes in order. Two subtrees have equal hashes exactly when they render
// to the same String (up to a 2^-128-scale collision); the value is stable
// across processes.
func (n *Node) Hash() [2]uint64 { return n.hash }

// Tables returns the set of base relations under this node, sorted.
func (n *Node) Tables() []string {
	out := make([]string, 0, (n.NumNodes()+1)/2)
	n.Walk(func(c *Node) {
		if c.IsLeaf() {
			out = append(out, c.Table)
		}
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// TableSet returns the set of base relations under this node.
func (n *Node) TableSet() map[string]bool {
	set := make(map[string]bool, (n.NumNodes()+1)/2)
	n.Walk(func(c *Node) {
		if c.IsLeaf() {
			set[c.Table] = true
		}
	})
	return set
}

// hasTable reports whether the base relation, whose signature bit is bit, is
// scanned under this node. Subtrees whose signature lacks the bit are not
// entered, so the answer usually costs one descent.
func (n *Node) hasTable(table string, bit uint64) bool {
	for n.rels&bit != 0 {
		if n.IsLeaf() {
			return n.Table == table
		}
		if n.Left.hasTable(table, bit) {
			return true
		}
		n = n.Right
	}
	return false
}

// NumNodes returns the number of nodes in the subtree.
func (n *Node) NumNodes() int {
	if n == nil {
		return 0
	}
	return int(n.nodes)
}

// NumUnspecified returns the number of unspecified scans in the subtree.
func (n *Node) NumUnspecified() int {
	if n == nil {
		return 0
	}
	return int(n.unspec)
}

// Walk visits every node in the subtree in pre-order.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	n.Left.Walk(fn)
	n.Right.Walk(fn)
}

// String renders the subtree in the paper's notation, e.g.
// "(T(D) ⋈M T(A)) ⋈L I(C)".
func (n *Node) String() string {
	if n == nil {
		return "∅"
	}
	if n.IsLeaf() {
		return fmt.Sprintf("%s(%s)", n.Scan, n.Table)
	}
	var sym string
	switch n.Join {
	case HashJoin:
		sym = "⋈H"
	case MergeJoin:
		sym = "⋈M"
	default:
		sym = "⋈L"
	}
	return fmt.Sprintf("(%s %s %s)", n.Left, sym, n.Right)
}

// Plan is a (partial or complete) execution plan for a query: a forest of
// plan trees covering exactly the query's relations.
type Plan struct {
	// Query is the query this plan executes.
	Query *query.Query
	// Roots are the trees of the forest. A complete plan has exactly one
	// root and no unspecified scans.
	Roots []*Node
}

// Initial returns the search start state for a query: one unspecified scan
// per relation (P0 in Section 4.2).
func Initial(q *query.Query) *Plan {
	roots := make([]*Node, 0, len(q.Relations))
	for _, r := range q.Relations {
		roots = append(roots, Leaf(r, UnspecifiedScan))
	}
	return &Plan{Query: q, Roots: roots}
}

// IsComplete reports whether the plan is a complete execution plan: a single
// tree with every scan specified.
func (p *Plan) IsComplete() bool {
	return len(p.Roots) == 1 && p.Roots[0].unspec == 0
}

// NumUnspecified returns the number of unspecified scans across the forest.
func (p *Plan) NumUnspecified() int {
	n := 0
	for _, r := range p.Roots {
		n += r.NumUnspecified()
	}
	return n
}

// String implements fmt.Stringer.
func (p *Plan) String() string {
	parts := make([]string, len(p.Roots))
	for i, r := range p.Roots {
		parts[i] = r.String()
	}
	return "[" + strings.Join(parts, "] , [") + "]"
}

// Hash returns the plan's 128-bit structural identity: a function of the
// multiset of its roots' structural hashes, so — exactly like Signature,
// which sorts the roots' strings — it does not depend on root order. The
// search deduplicates states on it.
func (p *Plan) Hash() [2]uint64 {
	h := [2]uint64{uint64(len(p.Roots)), ^uint64(len(p.Roots))}
	for _, r := range p.Roots {
		h[0] += mix64(r.hash[0] ^ rootSeed0)
		h[1] += mix64(r.hash[1] ^ rootSeed1)
	}
	return h
}

// Signature returns a canonical string uniquely identifying the plan's
// structure, for display and tests; Hash is the identity code keys on.
func (p *Plan) Signature() string {
	parts := make([]string, len(p.Roots))
	for i, r := range p.Roots {
		parts[i] = r.String()
	}
	slices.Sort(parts)
	return strings.Join(parts, "|")
}

// ChildrenOptions configures the successor enumeration.
type ChildrenOptions struct {
	// Catalog, when set, restricts IndexScan choices to relations that have
	// a usable index (an index on a join column or on a predicate column of
	// the query).
	Catalog *schema.Catalog
	// AllowCrossProducts permits joining two subtrees that share no join
	// predicate. The default (false) matches conventional optimizers; when
	// the join graph is connected it does not exclude the optimal plan.
	AllowCrossProducts bool
}

// Children enumerates the successor plans of p as defined in Section 4.2:
// every plan obtainable by (1) specifying one unspecified scan as a table or
// index scan, or (2) joining two roots of the forest with one of the join
// operators. A complete plan has no children.
//
// A child shares every subtree it does not change with p: it costs a new
// Roots slice plus one join node, or the leaf-to-root spine above the
// specified scan.
func (p *Plan) Children(opts ChildrenOptions) []*Plan {
	if p.IsComplete() {
		return nil
	}
	var out []*Plan

	// (1) Specify an unspecified scan. To keep the branching factor small we
	// specify the first unspecified scan encountered in the first root that
	// has one (left to right); specifying them in a different order yields
	// the same set of reachable complete plans.
	for ri, r := range p.Roots {
		if r.unspec == 0 {
			continue
		}
		scans := [...]ScanType{TableScan, IndexScan}
		offered := 1
		if p.indexUsable(firstUnspecified(r).Table, opts.Catalog) {
			offered = 2
		}
		for _, st := range scans[:offered] {
			roots := append([]*Node(nil), p.Roots...)
			roots[ri] = specifyFirst(r, st)
			out = append(out, &Plan{Query: p.Query, Roots: roots})
		}
		break // only expand one unspecified scan per state
	}

	// (2) Join two roots. Build and probe sides matter to the cost model, so
	// each unordered pair yields both orientations of every operator.
	var linked []bool
	if !opts.AllowCrossProducts {
		linked = p.linkedRoots()
	}
	n := len(p.Roots)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if linked != nil && !linked[i*n+j] {
				continue
			}
			for _, op := range AllJoinOps {
				out = append(out, p.joinRoots(i, j, op), p.joinRoots(j, i, op))
			}
		}
	}
	return out
}

// linkedRoots answers, for one expansion, which pairs of roots some join
// predicate of the query connects: entry i*len(Roots)+j. It costs one root
// lookup per predicate side, against the relation signatures.
func (p *Plan) linkedRoots() []bool {
	n := len(p.Roots)
	linked := make([]bool, n*n)
	for _, j := range p.Query.Joins {
		l, r := p.rootOf(j.LeftTable), p.rootOf(j.RightTable)
		if l >= 0 && r >= 0 {
			linked[l*n+r], linked[r*n+l] = true, true
		}
	}
	return linked
}

// rootOf returns the index of the root that scans table, or -1.
func (p *Plan) rootOf(table string) int {
	bit := tableBit(table)
	for i, r := range p.Roots {
		if r.hasTable(table, bit) {
			return i
		}
	}
	return -1
}

// JoinBetween returns the first join predicate of q (in q.Joins order) that
// connects a relation under a with a relation under b, in either direction.
func JoinBetween(q *query.Query, a, b *Node) (query.JoinPredicate, bool) {
	for _, j := range q.Joins {
		l, r := tableBit(j.LeftTable), tableBit(j.RightTable)
		if (a.hasTable(j.LeftTable, l) && b.hasTable(j.RightTable, r)) || (a.hasTable(j.RightTable, r) && b.hasTable(j.LeftTable, l)) {
			return j, true
		}
	}
	return query.JoinPredicate{}, false
}

// joinRoots returns p with roots i and j replaced by a single join node
// (root i becomes the left/outer input), appended after the untouched roots.
func (p *Plan) joinRoots(i, j int, op JoinOp) *Plan {
	roots := make([]*Node, 0, len(p.Roots)-1)
	for k, r := range p.Roots {
		if k != i && k != j {
			roots = append(roots, r)
		}
	}
	roots = append(roots, Join2(op, p.Roots[i], p.Roots[j]))
	return &Plan{Query: p.Query, Roots: roots}
}

// indexUsable reports whether an index scan is a sensible option for the
// given relation in this query: the catalog has an index on a column used by
// a join or column predicate of the query (or on the primary key).
func (p *Plan) indexUsable(table string, cat *schema.Catalog) bool {
	if cat == nil {
		return true
	}
	for _, j := range p.Query.Joins {
		if j.LeftTable == table && cat.HasIndex(table, j.LeftColumn) {
			return true
		}
		if j.RightTable == table && cat.HasIndex(table, j.RightColumn) {
			return true
		}
	}
	for _, pr := range p.Query.Predicates {
		if pr.Table == table && cat.HasIndex(table, pr.Column) {
			return true
		}
	}
	return false
}

// firstUnspecified returns the leftmost unspecified scan under n, which must
// have one.
func firstUnspecified(n *Node) *Node {
	for !n.IsLeaf() {
		if n.Left.unspec > 0 {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// specifyFirst returns n with its leftmost unspecified scan given access
// path st: a copy of the leaf-to-root spine over the untouched subtrees.
func specifyFirst(n *Node, st ScanType) *Node {
	switch {
	case n.IsLeaf():
		return Leaf(n.Table, st)
	case n.Left.unspec > 0:
		return Join2(n.Join, specifyFirst(n.Left, st), n.Right)
	default:
		return Join2(n.Join, n.Left, specifyFirst(n.Right, st))
	}
}

// IsSubplanOf reports whether p could be completed into the complete plan f
// in the sense of Section 3.1: f is obtainable from p by specifying scans
// and joining p's trees. The check used here is structural: every join node
// of p must appear (same operator, same relation sets on each side) in f,
// and every specified scan of p must have the same access path in f.
func (p *Plan) IsSubplanOf(f *Plan) bool {
	if len(f.Roots) != 1 {
		return false
	}
	froot := f.Roots[0]
	for _, r := range p.Roots {
		if !subtreeEmbedded(r, froot) {
			return false
		}
	}
	return true
}

// subtreeEmbedded reports whether the partial subtree r is consistent with
// some subtree of the complete tree f.
func subtreeEmbedded(r *Node, f *Node) bool {
	if f == nil {
		return false
	}
	if nodeConsistent(r, f) {
		return true
	}
	return subtreeEmbedded(r, f.Left) || subtreeEmbedded(r, f.Right)
}

// nodeConsistent reports whether partial node r is consistent with complete
// node f at the same position.
func nodeConsistent(r *Node, f *Node) bool {
	if r == nil || f == nil {
		return r == nil && f == nil
	}
	if r.IsLeaf() {
		if !f.IsLeaf() || f.Table != r.Table {
			return false
		}
		return r.Scan == UnspecifiedScan || r.Scan == f.Scan
	}
	if f.IsLeaf() {
		return false
	}
	if r.Join != f.Join {
		return false
	}
	return nodeConsistent(r.Left, f.Left) && nodeConsistent(r.Right, f.Right)
}

// The structural hash runs two 64-bit lanes keyed by different seeds; every
// absorbed word passes through a full-avalanche bijection (the splitmix64
// finaliser), and a join absorbs both lanes of both children into each of
// its lanes, in order, so the lanes do not collide together.
const (
	leafSeed0, leafSeed1 = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
	joinSeed0, joinSeed1 = 0x165667b19e3779f9, 0x27d4eb2f165667c5
	rootSeed0, rootSeed1 = 0xd6e8feb86659fd93, 0xa0761d6478bd642f
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString hashes a relation name under seed, eight bytes to the word.
func hashString(seed uint64, s string) uint64 {
	h := mix64(seed ^ uint64(len(s)))
	for len(s) > 0 {
		var w uint64
		n := min(8, len(s))
		for i := 0; i < n; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h = mix64(h ^ w)
		s = s[n:]
	}
	return h
}

// relBit picks a relation's bit in Node.rels from the first lane of its
// name's hash; tableBit does so from the name.
func relBit(lane0 uint64) uint64   { return 1 << (lane0 & 63) }
func tableBit(table string) uint64 { return relBit(hashString(leafSeed0, table)) }

func leafHash(table [2]uint64, scan ScanType) [2]uint64 {
	return [2]uint64{mix64(table[0] ^ uint64(scan)), mix64(table[1] ^ uint64(scan))}
}

func joinHash(op JoinOp, l, r [2]uint64) [2]uint64 {
	var h [2]uint64
	for lane, seed := range [2]uint64{joinSeed0, joinSeed1} {
		x := mix64(seed ^ uint64(op))
		x = mix64(x ^ l[0])
		x = mix64(x ^ l[1])
		x = mix64(x ^ r[0])
		x = mix64(x ^ r[1])
		h[lane] = x
	}
	return h
}

// Package plan models query execution plans exactly as Section 3.1 of the
// paper defines them: a partial execution plan is a forest of trees whose
// internal nodes are join operators (hash, merge, loop) and whose leaves are
// table scans, index scans, or still-unspecified scans over base relations.
//
// A complete plan has a single tree and no unspecified scans. The Children
// relation (one scan specified, or two roots merged by a join operator) is
// the successor function of Neo's best-first search, which walks it as
// edits of a plan (Edits, Apply) and builds only the children it expands.
package plan

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

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
// Nodes are immutable: build them with Leaf and Join2, or draw them from a
// Nodes table, and never assign a field afterwards (neo-lint's frozenwrite
// check enforces the second half). That is what lets a child plan share
// every subtree it did not change with its parent, lets the plan cache and
// the experience hold plans without copying them, and makes the facts
// derived at construction — the structural hash, the node counts, the
// relation-set signature, the table membership — field reads.
//
// A node drawn from a Nodes table is that table's one node for its
// structure and carries the table's generation and its dense id there; a
// node built by Leaf or Join2 belongs to no table.
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
	// gen is the generation of the Nodes table the node belongs to (0: none)
	// and id its dense id there. A number, not a pointer: a plan that
	// outlives its search must not keep the search's table alive.
	gen uint64
	id  int32
}

// Leaf constructs a scan node.
func Leaf(table string, scan ScanType) *Node {
	return newLeaf(table, scan, tableHash(table), 0, 0)
}

// Join2 constructs a join node over two subtrees.
func Join2(op JoinOp, left, right *Node) *Node {
	return newJoin(op, left, right, joinHash(op, left.hash, right.hash), 0, 0)
}

// newLeaf builds a scan node over the table whose name hashes to th, as a
// node of table generation gen with id id.
func newLeaf(table string, scan ScanType, th [2]uint64, gen uint64, id int32) *Node {
	unspec := int32(0)
	if scan == UnspecifiedScan {
		unspec = 1
	}
	return &Node{Scan: scan, Table: table, hash: leafHash(th, scan), nodes: 1, unspec: unspec, rels: relBit(th[0]), gen: gen, id: id}
}

// newJoin builds a join node whose structural hash is h, as a node of table
// generation gen with id id.
func newJoin(op JoinOp, left, right *Node, h [2]uint64, gen uint64, id int32) *Node {
	return &Node{
		Join: op, Left: left, Right: right,
		hash:   h,
		nodes:  1 + left.nodes + right.nodes,
		unspec: left.unspec + right.unspec,
		rels:   left.rels | right.rels,
		gen:    gen,
		id:     id,
	}
}

// Nodes is a table of hash-consed plan nodes: it hands out one node, and one
// dense id, per distinct subtree — per (operator or scan, table, left,
// right). A leaf is keyed on its structural hash, a join on its operator and
// its children's ids, so finding a join the table holds hashes nothing. A
// search draws every state from one table (Initial, Edits), so a child plan
// costs a lookup wherever an earlier state already built its new node, and
// what the search's plan encoder and scorer remember of a subtree sits in
// slices indexed by its id. A table node's children are the table's own,
// and its id is larger than theirs.
//
// A node built elsewhere — by Leaf and Join2, or drawn from another table —
// is interned with one lookup per node under it (ID, Intern). The table's
// nodes carry its generation number rather than a pointer to it, so plans
// that outlive the search — its result, a plan-cache entry, an experience
// entry — do not keep the table alive. Not safe for concurrent use.
type Nodes struct {
	gen    uint64
	leaves map[[2]uint64]int32 // a leaf's structural hash → id
	joins  map[uint64]int32    // joinKey(op, left id, right id) → id
	nodes  []*Node             // id → node

	// Reused by Edits: the query whose join predicates links holds, and the
	// pairs of roots they connect.
	links  *Joins
	linked []bool
}

// generations numbers the tables; generation 0 is no table's.
var generations atomic.Uint64

// NewNodes returns an empty table.
func NewNodes() *Nodes {
	return &Nodes{gen: generations.Add(1), leaves: make(map[[2]uint64]int32), joins: make(map[uint64]int32)}
}

// Reserve sizes the table for n nodes in all, so that filling it up to n
// grows neither its join map nor its node list. Call it before the table
// fills: it copies what the table already holds.
func (t *Nodes) Reserve(n int) {
	if n <= cap(t.nodes) {
		return
	}
	joins := make(map[uint64]int32, n)
	for k, id := range t.joins {
		joins[k] = id
	}
	t.joins = joins
	t.nodes = slices.Grow(t.nodes, n-len(t.nodes))
}

// Len returns the number of nodes in the table; their ids are 0 … Len()−1.
func (t *Nodes) Len() int { return len(t.nodes) }

// Node returns the table's node with the given id.
func (t *Nodes) Node(id int32) *Node { return t.nodes[id] }

// ID returns the id of the table's node structurally equal to n, interning n
// first if the table has none.
func (t *Nodes) ID(n *Node) int32 { return t.Intern(n).id }

// Intern returns the table's node structurally equal to n: n itself if it is
// the table's, else the table's equal node, built (together with whatever of
// n's subtrees the table lacks) if there is none.
func (t *Nodes) Intern(n *Node) *Node {
	switch {
	case n.gen == t.gen:
		return n
	case n.IsLeaf():
		if id, ok := t.leaves[n.hash]; ok {
			return t.nodes[id]
		}
		return t.addLeaf(n.Table, n.Scan, tableHash(n.Table), n.hash)
	default:
		return t.Join(n.Join, n.Left, n.Right)
	}
}

// Leaf returns the table's scan node over table with access path scan.
func (t *Nodes) Leaf(table string, scan ScanType) *Node {
	th := tableHash(table)
	h := leafHash(th, scan)
	if id, ok := t.leaves[h]; ok {
		return t.nodes[id]
	}
	return t.addLeaf(table, scan, th, h)
}

// addLeaf adds the scan node over table, whose name hashes to th, with
// access path scan and structural hash h.
func (t *Nodes) addLeaf(table string, scan ScanType, th, h [2]uint64) *Node {
	t.leaves[h] = t.next()
	return t.add(newLeaf(table, scan, th, t.gen, t.next()))
}

// Join returns the table's join node with operator op over (the table's
// nodes equal to) left and right.
func (t *Nodes) Join(op JoinOp, left, right *Node) *Node {
	left, right = t.Intern(left), t.Intern(right)
	key := joinKey(op, left.id, right.id)
	if id, ok := t.joins[key]; ok {
		return t.nodes[id]
	}
	t.joins[key] = t.next()
	return t.add(newJoin(op, left, right, joinHash(op, left.hash, right.hash), t.gen, t.next()))
}

// joinKey packs a join's operator and its children's ids (below 2^31) into
// one word.
func joinKey(op JoinOp, left, right int32) uint64 {
	return uint64(op)<<62 | uint64(left)<<31 | uint64(right)
}

// next returns the id the next added node takes.
func (t *Nodes) next() int32 { return int32(len(t.nodes)) }

// add records n, built with id next() and keyed already, and returns it.
func (t *Nodes) add(n *Node) *Node {
	t.nodes = append(t.nodes, n)
	return n
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
// per relation (P0 in Section 4.2), drawn from t.
func Initial(q *query.Query, t *Nodes) *Plan {
	roots := make([]*Node, 0, len(q.Relations))
	for _, r := range q.Relations {
		roots = append(roots, t.Leaf(r, UnspecifiedScan))
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
//
// It is a wrapping sum of one term per root plus a term for the root count,
// so EditHash derives a child's from its parent's in constant time.
func (p *Plan) Hash() [2]uint64 {
	h := [2]uint64{uint64(len(p.Roots)), ^uint64(len(p.Roots))}
	for _, r := range p.Roots {
		h = addRoot(h, r)
	}
	return h
}

// addRoot and subRoot add and take away root r's term of a plan hash.
func addRoot(h [2]uint64, r *Node) [2]uint64 {
	return [2]uint64{h[0] + mix64(r.hash[0]^rootSeed0), h[1] + mix64(r.hash[1]^rootSeed1)}
}

func subRoot(h [2]uint64, r *Node) [2]uint64 {
	return [2]uint64{h[0] - mix64(r.hash[0]^rootSeed0), h[1] - mix64(r.hash[1]^rootSeed1)}
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

// Edit is one child of a plan, as a change to the plan's roots: root I
// becomes Node when J < 0 (a scan specified), and roots I < J make way for
// Node, appended after the roots left, otherwise (a join). Apply builds the
// child; EditHash hashes it without building it.
type Edit struct {
	I, J int32
	Node *Node
}

// Children enumerates the successor plans of p as defined in Section 4.2:
// every plan obtainable by (1) specifying one unspecified scan as a table or
// index scan, or (2) joining two roots of the forest with one of the join
// operators. A complete plan has no children. It is Edits, each applied.
func (p *Plan) Children(t *Nodes, opts ChildrenOptions) []*Plan {
	p = t.internRoots(p)
	edits := p.Edits(t, opts, nil)
	if len(edits) == 0 {
		return nil
	}
	out := make([]*Plan, len(edits))
	for i, e := range edits {
		out[i] = p.Apply(e)
	}
	return out
}

// Edits appends to dst the children of p (see Children) as edits, in
// Children's order, and returns the extended slice. Every edit's Node is
// t's (p's roots are interned first): one join node, or the leaf-to-root
// spine above the specified scan, over subtrees p already has — or a lookup
// only, where t holds it already.
func (p *Plan) Edits(t *Nodes, opts ChildrenOptions, dst []Edit) []Edit {
	if p.IsComplete() {
		return dst
	}
	p = t.internRoots(p)
	n := len(p.Roots)
	var linked []bool
	if !opts.AllowCrossProducts {
		linked = t.linkedRoots(p)
	}
	// (1) Specify an unspecified scan. To keep the branching factor small we
	// specify the first unspecified scan encountered in the first root that
	// has one (left to right); specifying them in a different order yields
	// the same set of reachable complete plans.
	if ri := slices.IndexFunc(p.Roots, func(r *Node) bool { return r.unspec > 0 }); ri >= 0 {
		index := p.indexUsable(firstUnspecified(p.Roots[ri]).Table, opts.Catalog)
		dst = append(dst, Edit{I: int32(ri), J: -1, Node: t.specifyFirst(p.Roots[ri], TableScan)})
		if index {
			dst = append(dst, Edit{I: int32(ri), J: -1, Node: t.specifyFirst(p.Roots[ri], IndexScan)})
		}
	}

	// (2) Join two roots: root i becomes the left/outer input of t's join
	// node over roots i and j. Build and probe sides matter to the cost
	// model, so each unordered pair yields both orientations of every
	// operator.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if linked != nil && !linked[i*n+j] {
				continue
			}
			for _, op := range AllJoinOps {
				dst = append(dst,
					Edit{I: int32(i), J: int32(j), Node: t.Join(op, p.Roots[i], p.Roots[j])},
					Edit{I: int32(i), J: int32(j), Node: t.Join(op, p.Roots[j], p.Roots[i])})
			}
		}
	}
	return dst
}

// Apply returns the child of p that e describes, with Roots of its own: a
// scan child keeps p's root order, a join child lists the roots it did not
// join in p's order and then the join.
func (p *Plan) Apply(e Edit) *Plan {
	if e.J < 0 {
		roots := slices.Clone(p.Roots)
		roots[e.I] = e.Node
		return &Plan{Query: p.Query, Roots: roots}
	}
	roots := make([]*Node, 0, len(p.Roots)-1)
	for k, r := range p.Roots {
		if k != int(e.I) && k != int(e.J) {
			roots = append(roots, r)
		}
	}
	return &Plan{Query: p.Query, Roots: append(roots, e.Node)}
}

// EditHash returns p.Apply(e).Hash() from h = p.Hash(), in constant time.
func (p *Plan) EditHash(h [2]uint64, e Edit) [2]uint64 {
	h = subRoot(h, p.Roots[e.I])
	if e.J >= 0 {
		h = subRoot(h, p.Roots[e.J])
		// One root fewer: the count term n, ^n becomes n−1, ^n+1.
		h[0]--
		h[1]++
	}
	return addRoot(h, e.Node)
}

// Completes reports whether p.Apply(e) is a complete plan.
func (e Edit) Completes(p *Plan) bool {
	roots := len(p.Roots)
	if e.J >= 0 {
		roots--
	}
	return roots == 1 && e.Node.unspec == 0
}

// linkedRoots answers, for one expansion of a plan of t's, which pairs of
// distinct roots some join predicate of the query connects — entry
// i*len(Roots)+j. It costs one root lookup per predicate side, against the
// relation signatures. The answer is t's scratch, valid until the next call.
func (t *Nodes) linkedRoots(p *Plan) []bool {
	if t.links == nil || t.links.q != p.Query {
		t.links = JoinsOf(p.Query)
	}
	n := len(p.Roots)
	linked := slices.Grow(t.linked[:0], n*n)[:n*n]
	clear(linked)
	t.linked = linked
	for k, j := range p.Query.Joins {
		bits := t.links.bits[k]
		l, r := t.links.rootOf(p, j.LeftTable, bits[0]), t.links.rootOf(p, j.RightTable, bits[1])
		if l >= 0 && r >= 0 && l != r {
			linked[l*n+r], linked[r*n+l] = true, true
		}
	}
	return linked
}

// Joins is a query's join predicates with each side's relation signature
// bit, hashed once per query rather than on every test of a node against a
// predicate. Its answers are for nodes of the query's plans: nodes over the
// query's relations.
type Joins struct {
	q    *query.Query
	bits [][2]uint64 // bits[k]: q.Joins[k]'s left and right tables' bits
	// shared marks the bits two of the query's tables have in common. A
	// node over the query's relations holds a table whose bit is its alone
	// exactly when its signature has the bit.
	shared uint64
}

// JoinsOf returns q's join predicates with their tables' bits.
func JoinsOf(q *query.Query) *Joins {
	js := &Joins{q: q, bits: make([][2]uint64, len(q.Joins))}
	var buf [32]uint64
	rels := buf[:0] // q.Relations' bits
	var seen uint64
	for _, r := range q.Relations {
		bit := tableBit(r)
		if seen&bit != 0 {
			js.shared |= bit
		}
		seen |= bit
		rels = append(rels, bit)
	}
	for k, j := range q.Joins {
		for side, table := range [2]string{j.LeftTable, j.RightTable} {
			if i := slices.Index(q.Relations, table); i >= 0 {
				js.bits[k][side] = rels[i]
				continue
			}
			// A table the query does not scan: no node has it, unless its
			// bit says otherwise.
			bit := tableBit(table)
			if seen&bit != 0 {
				js.shared |= bit
			}
			js.bits[k][side] = bit
		}
	}
	return js
}

// has reports whether node n scans table, whose bit is bit.
func (js *Joins) has(n *Node, table string, bit uint64) bool {
	if bit&js.shared == 0 {
		return n.rels&bit != 0
	}
	return n.hasTable(table, bit)
}

// rootOf returns the index of p's root that scans table, whose bit is bit,
// or -1.
func (js *Joins) rootOf(p *Plan, table string, bit uint64) int {
	for i, r := range p.Roots {
		if js.has(r, table, bit) {
			return i
		}
	}
	return -1
}

// Between returns the first join predicate of the query (in q.Joins order)
// that connects a relation under a with a relation under b, in either
// direction.
func (js *Joins) Between(a, b *Node) (query.JoinPredicate, bool) {
	for k, j := range js.q.Joins {
		l, r := js.bits[k][0], js.bits[k][1]
		if (js.has(a, j.LeftTable, l) && js.has(b, j.RightTable, r)) || (js.has(a, j.RightTable, r) && js.has(b, j.LeftTable, l)) {
			return j, true
		}
	}
	return query.JoinPredicate{}, false
}

// internRoots returns p if its roots are t's nodes, else p with its roots
// interned into t.
func (t *Nodes) internRoots(p *Plan) *Plan {
	for i, r := range p.Roots {
		if r.gen == t.gen {
			continue
		}
		roots := slices.Clone(p.Roots)
		for j := i; j < len(roots); j++ {
			roots[j] = t.Intern(roots[j])
		}
		return &Plan{Query: p.Query, Roots: roots}
	}
	return p
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

// specifyFirst returns t's node equal to n with its leftmost unspecified
// scan given access path st: the leaf-to-root spine over the untouched
// subtrees.
func (t *Nodes) specifyFirst(n *Node, st ScanType) *Node {
	switch {
	case n.IsLeaf():
		return t.Leaf(n.Table, st)
	case n.Left.unspec > 0:
		return t.Join(n.Join, t.specifyFirst(n.Left, st), n.Right)
	default:
		return t.Join(n.Join, n.Left, t.specifyFirst(n.Right, st))
	}
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

// tableHash hashes a relation name into both lanes.
func tableHash(table string) [2]uint64 {
	return [2]uint64{hashString(leafSeed0, table), hashString(leafSeed1, table)}
}

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

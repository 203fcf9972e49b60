// Package executor is the physical execution substrate every engine shares.
// It runs complete plans operator-at-a-time — scan, index scan, filter, hash
// join, merge join, index-nested-loop join, cross product — over composite
// rows of int32 handles, reading base tables through a rowSource: the
// in-memory column store for the simulated engines, heap files behind the
// buffer pool for the disk engine. Every plan node is annotated with the
// input/output cardinalities, access-path and ordering facts the cost models
// price.
//
// *What* is computed (true join results, which depend only on the data and
// the join order) is separate from *what it costs on a given engine* (package
// engine). Both kinds of engine run the operator the plan names, and every
// operator returns the same rows, so cardinalities do not depend on the
// operator. The first join predicate between two inputs drives the physical
// join and any further ones filter its output; scan output inherits the
// clustered (primary-key) ordering and merge-join output is sorted on the
// join key. An index-nested-loop join never scans its inner leaf: that
// leaf's OutputRows (and the join's RightRows) count the tuples fetched
// through the index that passed the leaf's predicates, which no cost model
// reads.
//
// The two constructors differ in one thing: what an intermediate result that
// outgrows MaxRows means. New (simulated engines, priced by a cost model)
// down-samples it and tracks a scale factor, so cardinalities stay
// approximately right while execution time stays bounded even for
// catastrophic plans. NewDisk (measured wall clock) cuts it off and marks the
// Result Truncated.
package executor

import (
	"fmt"
	"sort"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/schema"
	"neo/internal/storage"
)

// DefaultMaxRows is the sampling cap New puts on materialised intermediate
// results. Intermediates larger than the cap are uniformly down-sampled and a
// scale factor is tracked, so reported cardinalities remain (approximately)
// correct.
const DefaultMaxRows = 50000

// DiskMaxRows is the row budget NewDisk puts on intermediate results. It is
// a runaway-plan safety net, not a sampling cap, set far above anything the
// bundled workloads produce.
const DiskMaxRows = 1 << 20

// joinSlack is how far past MaxRows a join may run before it stops early:
// the more of the output exists, the better the sample drawn from it.
const joinSlack = 4

// NodeStats records everything the engine cost models need to know about one
// executed plan node.
type NodeStats struct {
	// OutputRows is the number of rows the node produces: scale-corrected
	// when an input was sampled, a lower bound when the Result is Truncated.
	OutputRows float64
	// LeftRows and RightRows are the input cardinalities of a join node.
	LeftRows, RightRows float64
	// BaseRows is the size of the scanned base table (scan nodes only).
	BaseRows float64
	// Selectivity is OutputRows/BaseRows for scan nodes.
	Selectivity float64
	// IndexOnPredicate reports whether an equality predicate on the scanned
	// table matches an indexed column (scan nodes only).
	IndexOnPredicate bool
	// InnerIndexOnJoinKey reports whether the right (inner/build) child is a
	// base-relation index scan whose join column is indexed, enabling an
	// index-nested-loop strategy (join nodes only).
	InnerIndexOnJoinKey bool
	// LeftSorted and RightSorted report whether the join inputs arrive
	// sorted on the join key (join nodes only).
	LeftSorted, RightSorted bool
	// CrossProduct reports that no join predicate connected the inputs.
	CrossProduct bool
}

// Result is the outcome of executing a complete plan.
type Result struct {
	// Root points at the plan's root node.
	Root *plan.Node
	// Nodes maps every plan node to its execution statistics.
	Nodes map[*plan.Node]*NodeStats
	// OutputRows is the cardinality of the final result (see
	// NodeStats.OutputRows).
	OutputRows float64
	// Truncated reports that an intermediate result outgrew the row budget
	// of an executor made by NewDisk and was cut off, so cardinalities are
	// lower bounds. An executor made by New samples instead and never sets
	// it.
	Truncated bool
}

// Executor executes plans against one database. It is safe for concurrent
// use: all state of an execution lives in that execution.
type Executor struct {
	// MaxRows caps materialised intermediate results (see DefaultMaxRows
	// and DiskMaxRows).
	MaxRows int

	catalog *schema.Catalog
	// open returns a fresh source over the named table, nil if unknown.
	open func(table string) rowSource
	// truncate is what outgrowing MaxRows means: cut off and mark the
	// Result (true) or down-sample and scale (false).
	truncate bool
}

// New creates a sampling executor over the in-memory column store.
func New(db *storage.Database) *Executor {
	return &Executor{MaxRows: DefaultMaxRows, catalog: db.Catalog, open: func(table string) rowSource {
		if t := db.Table(table); t != nil {
			return memRows{t}
		}
		return nil
	}}
}

// NewDisk creates a truncating executor over heap files read through the
// database's buffer pool.
func NewDisk(db *storage.DiskDB) *Executor {
	return &Executor{MaxRows: DiskMaxRows, catalog: db.Catalog, truncate: true, open: func(table string) rowSource {
		if t := db.Table(table); t != nil {
			return &heapRows{pool: db.Pool, t: t}
		}
		return nil
	}}
}

func (e *Executor) maxRows() int {
	switch {
	case e.MaxRows > 0:
		return e.MaxRows
	case e.truncate:
		return DiskMaxRows
	}
	return DefaultMaxRows
}

// colName names a column of a base table.
type colName struct {
	table, column string
}

// relation is a materialised intermediate result: a bag of composite rows,
// each holding one handle per contributing base table.
type relation struct {
	tables []string       // base table names, in slot order
	slot   map[string]int // table name -> slot index
	rows   []int32        // composite rows back to back, len(tables) handles each
	mult   float64        // sampling scale factor (>= 1)
	sorted *colName       // column the rows are sorted on, if any
}

func newRelation(tables []string) *relation {
	r := &relation{tables: tables, slot: make(map[string]int, len(tables)), mult: 1}
	for i, t := range tables {
		r.slot[t] = i
	}
	return r
}

func (r *relation) len() int { return len(r.rows) / len(r.tables) }

func (r *relation) row(i int) []int32 {
	w := len(r.tables)
	return r.rows[i*w : (i+1)*w]
}

func (r *relation) card() float64 { return float64(r.len()) * r.mult }

func (r *relation) sortedOn(c colName) bool { return r.sorted != nil && *r.sorted == c }

// colRef is a column resolved against a relation's row layout.
type colRef struct {
	src  rowSource
	slot int // which handle of the composite row
	pos  int // column position in the table's schema
}

func (c colRef) of(row []int32) storage.Value { return c.src.value(row[c.slot], c.pos) }

// execution is the state of one Execute call.
type execution struct {
	e    *Executor
	q    *query.Query
	res  *Result
	srcs map[string]rowSource
}

// Execute runs a complete plan and returns per-node statistics.
func (e *Executor) Execute(p *plan.Plan) (*Result, error) {
	if !p.IsComplete() {
		return nil, fmt.Errorf("executor: plan for query %s is not complete: %s", p.Query.ID, p)
	}
	x := &execution{
		e: e, q: p.Query,
		res:  &Result{Root: p.Roots[0], Nodes: make(map[*plan.Node]*NodeStats)},
		srcs: make(map[string]rowSource),
	}
	rel, err := x.node(p.Roots[0])
	if err != nil {
		return nil, err
	}
	x.res.OutputRows = rel.card()
	return x.res, nil
}

// Count returns the true cardinality of the query result (the COUNT(*) the
// paper's example queries compute), by executing a canonical left-deep hash
// plan.
func (e *Executor) Count(q *query.Query) (float64, error) {
	p, err := canonicalPlan(q)
	if err != nil {
		return 0, err
	}
	res, err := e.Execute(p)
	if err != nil {
		return 0, err
	}
	return res.OutputRows, nil
}

// canonicalPlan builds any valid complete plan for the query (left-deep,
// hash joins, table scans), used for true-cardinality computation.
func canonicalPlan(q *query.Query) (*plan.Plan, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("executor: query %s has no relations", q.ID)
	}
	remaining := make(map[string]bool, len(q.Relations))
	for _, r := range q.Relations {
		remaining[r] = true
	}
	cur := plan.Leaf(q.Relations[0], plan.TableScan)
	delete(remaining, q.Relations[0])
	for len(remaining) > 0 {
		// Pick a remaining relation connected to the current tree.
		picked := ""
		cover := cur.TableSet()
		for _, r := range q.Relations {
			if !remaining[r] {
				continue
			}
			if q.Connected(cover, map[string]bool{r: true}) {
				picked = r
				break
			}
		}
		if picked == "" {
			// Disconnected join graph: fall back to a cross product with the
			// first remaining relation.
			for _, r := range q.Relations {
				if remaining[r] {
					picked = r
					break
				}
			}
		}
		cur = plan.Join2(plan.HashJoin, cur, plan.Leaf(picked, plan.TableScan))
		delete(remaining, picked)
	}
	return &plan.Plan{Query: q, Roots: []*plan.Node{cur}}, nil
}

// source returns this execution's source over a base table.
func (x *execution) source(table string) (rowSource, error) {
	if src, ok := x.srcs[table]; ok {
		return src, nil
	}
	src := x.e.open(table)
	if src == nil {
		return nil, fmt.Errorf("executor: unknown table %q", table)
	}
	x.srcs[table] = src
	return src, nil
}

// col resolves a column against the row layout of rel.
func (x *execution) col(rel *relation, c colName) (colRef, error) {
	src, err := x.source(c.table)
	if err != nil {
		return colRef{}, err
	}
	pos := src.schema().ColumnIndex(c.column)
	if pos < 0 {
		return colRef{}, fmt.Errorf("executor: unknown column %s.%s", c.table, c.column)
	}
	return colRef{src: src, slot: rel.slot[c.table], pos: pos}, nil
}

// filter compiles single-table predicates into a test on a row handle.
func filter(src rowSource, preds []query.Predicate) (func(h int32) bool, error) {
	pos := make([]int, len(preds))
	for i, p := range preds {
		if pos[i] = src.schema().ColumnIndex(p.Column); pos[i] < 0 {
			return nil, fmt.Errorf("executor: unknown column %s.%s", p.Table, p.Column)
		}
	}
	return func(h int32) bool {
		for i, p := range preds {
			if !p.Matches(src.value(h, pos[i])) {
				return false
			}
		}
		return true
	}, nil
}

// bound enforces MaxRows on a finished intermediate result. unseen is how
// many times larger the operator's input was than the part it consumed
// before stopping early; 1 when it ran to completion.
func (x *execution) bound(r *relation, unseen float64) {
	limit, n := x.e.maxRows(), r.len()
	if x.e.truncate {
		if unseen > 1 || n > limit {
			x.res.Truncated = true
			r.rows = r.rows[:min(n, limit)*len(r.tables)]
		}
		return
	}
	if unseen > 1 {
		r.mult *= unseen
	}
	if n > limit {
		r.sample(limit)
	}
}

// sample keeps exactly limit evenly spaced rows of the len() > limit there
// are and scales mult by len()/limit, so card() at the sampled node is
// unchanged. Downstream nodes join a uniform subsample, so their card()
// values are estimates whose relative error shrinks as
// O(1/sqrt(limit·selectivity)); with the default 50k cap this is well under
// a percent for the join selectivities the workloads produce.
func (r *relation) sample(limit int) {
	n, w := r.len(), len(r.tables)
	for i := 0; i < limit; i++ {
		copy(r.rows[i*w:(i+1)*w], r.row(i*n/limit)) // i*n/limit >= i: never overwrites an unread row
	}
	r.rows = r.rows[:limit*w]
	r.mult *= float64(n) / float64(limit)
	r.sorted = nil
}

func (x *execution) node(n *plan.Node) (*relation, error) {
	if n.IsLeaf() {
		return x.scan(n)
	}
	return x.join(n)
}

// leaf is a base-table access before any row is read: the node's statistics,
// the compiled predicates and the (still empty) output relation.
type leaf struct {
	src   rowSource
	preds []query.Predicate
	match func(h int32) bool
	rel   *relation
	ns    *NodeStats
}

func (x *execution) leaf(n *plan.Node) (*leaf, error) {
	src, err := x.source(n.Table)
	if err != nil {
		return nil, err
	}
	l := &leaf{
		src: src, preds: x.q.PredicatesOn(n.Table),
		rel: newRelation([]string{n.Table}),
		ns:  &NodeStats{BaseRows: float64(src.numRows())},
	}
	if l.match, err = filter(src, l.preds); err != nil {
		return nil, err
	}
	for _, p := range l.preds {
		if p.Op == query.Eq && x.e.catalog.HasIndex(p.Table, p.Column) {
			l.ns.IndexOnPredicate = true
		}
	}
	x.res.Nodes[n] = l.ns
	return l, nil
}

// clustered names the column a leaf's output is sorted on: storage order is
// primary-key order (the generators emit it; heap files and index posting
// lists keep it), which lets merge joins on primary keys avoid a sort.
func (l *leaf) clustered() *colName {
	if pk := l.src.schema().PrimaryKey; pk != "" {
		return &colName{l.rel.tables[0], pk}
	}
	return nil
}

// produced records how many rows passed the leaf's predicates.
func (l *leaf) produced(rows float64) {
	l.ns.OutputRows = rows
	l.ns.Selectivity = safeDiv(rows, l.ns.BaseRows)
}

func (x *execution) scan(n *plan.Node) (*relation, error) {
	l, err := x.leaf(n)
	if err != nil {
		return nil, err
	}
	keep := func(h int32) bool {
		if !l.match(h) {
			return false
		}
		l.rel.rows = append(l.rel.rows, h)
		return true
	}
	// An index scan with an equality predicate on a storage-indexed column
	// reads that value's posting list instead of the table.
	read := func() error { return l.src.each(keep) }
	if n.Scan == plan.IndexScan {
		for _, p := range l.preds {
			if p.Op != query.Eq {
				continue
			}
			if probe := l.src.lookup(p.Column); probe != nil {
				read = func() error { return probe(p.Value, keep) }
				break
			}
		}
	}
	if err := read(); err != nil {
		return nil, err
	}
	x.bound(l.rel, 1)
	l.rel.sorted = l.clustered() // an evenly spaced sample of a clustered table is still clustered
	l.produced(l.rel.card())
	return l.rel, nil
}

func (x *execution) join(n *plan.Node) (*relation, error) {
	left, err := x.node(n.Left)
	if err != nil {
		return nil, err
	}
	joins := x.q.JoinsBetween(setOf(left.tables), n.Right.TableSet())
	ns := &NodeStats{CrossProduct: len(joins) == 0}
	x.res.Nodes[n] = ns

	// The first join predicate drives the physical join. When the plan asks
	// for a loop join over an index scan of a base relation whose join
	// column the catalog indexes, and storage has that index, the join runs
	// as an index-nested-loop and the inner leaf is never scanned.
	var lkey, rkey colName
	var probe func(storage.Value, func(int32) bool) error
	if !ns.CrossProduct {
		lkey, rkey = orient(joins[0], left)
		ns.InnerIndexOnJoinKey = n.Right.IsLeaf() && n.Right.Scan == plan.IndexScan &&
			x.e.catalog.HasIndex(rkey.table, rkey.column)
		if ns.InnerIndexOnJoinKey && n.Join == plan.LoopJoin {
			src, err := x.source(rkey.table)
			if err != nil {
				return nil, err
			}
			probe = src.lookup(rkey.column)
		}
	}
	var right *relation
	var inner *leaf
	if probe != nil {
		if inner, err = x.leaf(n.Right); err != nil {
			return nil, err
		}
		right = inner.rel
		right.sorted = inner.clustered()
	} else if right, err = x.node(n.Right); err != nil {
		return nil, err
	}
	ns.LeftRows, ns.RightRows = left.card(), right.card()

	out := newRelation(append(append([]string{}, left.tables...), right.tables...))
	out.mult = left.mult * right.mult
	// Join predicates past the first filter the joined rows.
	var rest [][2]colRef
	for _, j := range joins[min(1, len(joins)):] {
		a, err := x.col(out, colName{j.LeftTable, j.LeftColumn})
		if err != nil {
			return nil, err
		}
		b, err := x.col(out, colName{j.RightTable, j.RightColumn})
		if err != nil {
			return nil, err
		}
		rest = append(rest, [2]colRef{a, b})
	}
	emit := func(l, r []int32) bool {
		at := len(out.rows)
		out.rows = append(append(out.rows, l...), r...)
		for _, p := range rest {
			if p[0].of(out.rows[at:]) != p[1].of(out.rows[at:]) {
				out.rows = out.rows[:at]
				return false
			}
		}
		return true
	}

	unseen := 1.0
	if ns.CrossProduct {
		limit := x.e.maxRows()
	pairs:
		for i := 0; i < left.len(); i++ {
			for j := 0; j < right.len(); j++ {
				emit(left.row(i), right.row(j))
				if out.len() >= limit {
					break pairs
				}
			}
		}
		if all := float64(left.len()) * float64(right.len()); out.len() > 0 && float64(out.len()) < all {
			unseen = all / float64(out.len())
		}
	} else {
		lcol, err := x.col(left, lkey)
		if err != nil {
			return nil, err
		}
		rcol, err := x.col(right, rkey)
		if err != nil {
			return nil, err
		}
		ns.LeftSorted, ns.RightSorted = left.sortedOn(lkey), right.sortedOn(rkey)

		// match joins the i-th left row, in the operator's own probe order.
		var match func(i int) error
		switch {
		case inner != nil:
			match = indexLoopJoin(left, lcol, inner, probe, emit)
		case n.Join == plan.MergeJoin:
			match = mergeJoin(left, right, lcol, rcol, emit)
			out.sorted = &lkey
		default:
			// HashJoin, and LoopJoin without a usable inner index: a blind
			// nested loop makes the same comparisons per pair, and hashing
			// the inner keeps its worst case out of the wall clock.
			match = hashJoin(left, right, lcol, rcol, emit)
		}
		// A join whose output runs away stops early, and the policy in
		// bound accounts for the share of the left input it never probed.
		limit := joinSlack * x.e.maxRows()
		for i := 0; i < left.len(); i++ {
			if err := match(i); err != nil {
				return nil, err
			}
			if out.len() > limit {
				unseen = float64(left.len()) / float64(i+1)
				break
			}
		}
		if inner != nil {
			inner.produced(inner.ns.OutputRows)
			ns.RightRows = inner.ns.OutputRows
		}
	}
	x.bound(out, unseen)
	ns.OutputRows = out.card()
	return out, nil
}

// indexLoopJoin returns the probe for the i-th left row: it fetches the inner
// rows holding that row's join value through the storage index and joins the
// ones that pass the inner leaf's predicates, counting them as the leaf's
// output.
func indexLoopJoin(left *relation, lcol colRef, inner *leaf, probe func(storage.Value, func(int32) bool) error, emit func(l, r []int32) bool) func(i int) error {
	var lrow []int32
	fetched := make([]int32, 1)
	keep := func(h int32) bool {
		if !inner.match(h) {
			return false
		}
		inner.ns.OutputRows++
		fetched[0] = h
		return emit(lrow, fetched)
	}
	return func(i int) error {
		lrow = left.row(i)
		return probe(lcol.of(lrow), keep)
	}
}

// hashJoin builds a hash table on the right input keyed by the join value
// and returns the probe for the i-th left row. Rows sharing a key are chained
// in right-input order.
func hashJoin(left, right *relation, lcol, rcol colRef, emit func(l, r []int32) bool) func(i int) error {
	head := make(map[storage.Value]int32, right.len()) // key -> 1 + first right row
	next := make([]int32, right.len())                 // right row -> 1 + next right row of its key
	for i := right.len() - 1; i >= 0; i-- {
		k := rcol.of(right.row(i))
		next[i] = head[k]
		head[k] = int32(i + 1)
	}
	return func(i int) error {
		lrow := left.row(i)
		for j := head[lcol.of(lrow)]; j > 0; j = next[j-1] {
			emit(lrow, right.row(int(j-1)))
		}
		return nil
	}
}

// mergeJoin sorts both inputs on the join key and returns the merge step for
// the left row at position i of that order. (Base scans arrive clustered on
// the primary key; sorting them again costs one pass and keeps the operator
// correct for any input.)
func mergeJoin(left, right *relation, lcol, rcol colRef, emit func(l, r []int32) bool) func(i int) error {
	lkeys, lorder := sortedKeys(left, lcol)
	rkeys, rorder := sortedKeys(right, rcol)
	ri := 0 // first right position whose key is not below the current left key
	return func(i int) error {
		k := lkeys[lorder[i]]
		for ri < len(rorder) && rkeys[rorder[ri]].Less(k) {
			ri++
		}
		for j := ri; j < len(rorder) && rkeys[rorder[j]] == k; j++ {
			emit(left.row(int(lorder[i])), right.row(int(rorder[j])))
		}
		return nil
	}
}

// sortedKeys returns every row's value of column c and the row numbers in
// ascending order of it, equal keys in input order.
func sortedKeys(r *relation, c colRef) (keys []storage.Value, order []int32) {
	keys, order = make([]storage.Value, r.len()), make([]int32, r.len())
	for i := range keys {
		keys[i], order[i] = c.of(r.row(i)), int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]].Less(keys[order[b]]) })
	return keys, order
}

// orient returns the (table, column) of a join predicate that belongs to the
// left input and to the right input, respectively.
func orient(j query.JoinPredicate, left *relation) (colName, colName) {
	if _, ok := left.slot[j.LeftTable]; ok {
		return colName{j.LeftTable, j.LeftColumn}, colName{j.RightTable, j.RightColumn}
	}
	return colName{j.RightTable, j.RightColumn}, colName{j.LeftTable, j.LeftColumn}
}

func setOf(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// TrueJoinCardinalities executes the query with a canonical plan and returns,
// for every subset of relations encountered along that plan, the true join
// cardinality. Used by the robustness experiment (Figure 14) as the "true
// cardinality" feature source.
func (e *Executor) TrueJoinCardinalities(q *query.Query) (map[string]float64, error) {
	p, err := canonicalPlan(q)
	if err != nil {
		return nil, err
	}
	res, err := e.Execute(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	p.Roots[0].Walk(func(n *plan.Node) {
		ns := res.Nodes[n]
		if ns == nil {
			return
		}
		out[SubsetKey(n.Tables())] = ns.OutputRows
	})
	return out, nil
}

// SubsetKey canonically encodes a set of relation names.
func SubsetKey(tables []string) string {
	key := ""
	for i, t := range tables {
		if i > 0 {
			key += ","
		}
		key += t
	}
	return key
}

// Selectivity returns the true selectivity of a conjunction of predicates on
// a single table (the fraction of rows matching), computed exactly.
func (e *Executor) Selectivity(table string, preds []query.Predicate) (float64, error) {
	src := e.open(table)
	if src == nil {
		return 0, fmt.Errorf("executor: unknown table %q", table)
	}
	if src.numRows() == 0 {
		return 0, nil
	}
	var own []query.Predicate
	for _, p := range preds {
		if p.Table == table {
			own = append(own, p)
		}
	}
	match, err := filter(src, own)
	if err != nil {
		return 0, err
	}
	matched := 0
	err = src.each(func(h int32) bool {
		if match(h) {
			matched++
		}
		return false
	})
	return float64(matched) / float64(src.numRows()), err
}

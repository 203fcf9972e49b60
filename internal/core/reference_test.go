package core

import (
	"math"

	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/reftest"
	"neo/internal/schema"
	"neo/internal/treeconv"
)

// Reference implementations of the search path's bookkeeping, as it was
// before child plans shared subtrees with their parents: a deep copy per
// child, table-set maps per root pair, and a recursive plan encoder that
// re-derives every subtree's cardinality from the leaves. They are slow and
// obviously right; parity_test.go holds the product code to them on every
// state real searches reach.

// refClone deep-copies a subtree.
func refClone(n *plan.Node) *plan.Node {
	if n.IsLeaf() {
		return plan.Leaf(n.Table, n.Scan)
	}
	return plan.Join2(n.Join, refClone(n.Left), refClone(n.Right))
}

func refClonePlan(p *plan.Plan) *plan.Plan {
	roots := make([]*plan.Node, len(p.Roots))
	for i, r := range p.Roots {
		roots[i] = refClone(r)
	}
	return &plan.Plan{Query: p.Query, Roots: roots}
}

// refSpecifyFirst deep-copies n with its first unspecified scan (pre-order)
// set to st; done reports whether one was found.
func refSpecifyFirst(n *plan.Node, st plan.ScanType, done *bool) *plan.Node {
	if n.IsLeaf() {
		if !*done && n.Scan == plan.UnspecifiedScan {
			*done = true
			return plan.Leaf(n.Table, st)
		}
		return plan.Leaf(n.Table, n.Scan)
	}
	left := refSpecifyFirst(n.Left, st, done)
	return plan.Join2(n.Join, left, refSpecifyFirst(n.Right, st, done))
}

func refNumUnspecified(n *plan.Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		if n.Scan == plan.UnspecifiedScan {
			return 1
		}
		return 0
	}
	return refNumUnspecified(n.Left) + refNumUnspecified(n.Right)
}

func refNumNodes(n *plan.Node) int {
	if n == nil {
		return 0
	}
	return 1 + refNumNodes(n.Left) + refNumNodes(n.Right)
}

func refIsComplete(p *plan.Plan) bool {
	return len(p.Roots) == 1 && refNumUnspecified(p.Roots[0]) == 0
}

// refChildren is the successor enumeration of Section 4.2 over deep copies.
func refChildren(p *plan.Plan, opts plan.ChildrenOptions) []*plan.Plan {
	if refIsComplete(p) {
		return nil
	}
	var out []*plan.Plan
	for ri := range p.Roots {
		var leaf *plan.Node
		p.Roots[ri].Walk(func(n *plan.Node) {
			if leaf == nil && n.IsLeaf() && n.Scan == plan.UnspecifiedScan {
				leaf = n
			}
		})
		if leaf == nil {
			continue
		}
		scans := []plan.ScanType{plan.TableScan}
		if refIndexUsable(p.Query, leaf.Table, opts.Catalog) {
			scans = append(scans, plan.IndexScan)
		}
		for _, st := range scans {
			child := refClonePlan(p)
			done := false
			child.Roots[ri] = refSpecifyFirst(p.Roots[ri], st, &done)
			out = append(out, child)
		}
		break
	}
	for i := 0; i < len(p.Roots); i++ {
		for j := 0; j < len(p.Roots); j++ {
			if i == j {
				continue
			}
			if !opts.AllowCrossProducts {
				if !p.Query.Connected(p.Roots[i].TableSet(), p.Roots[j].TableSet()) {
					continue
				}
			}
			if i > j {
				continue
			}
			for _, op := range plan.AllJoinOps {
				out = append(out, refJoinRoots(p, i, j, op), refJoinRoots(p, j, i, op))
			}
		}
	}
	return out
}

func refJoinRoots(p *plan.Plan, i, j int, op plan.JoinOp) *plan.Plan {
	child := refClonePlan(p)
	joined := plan.Join2(op, child.Roots[i], child.Roots[j])
	var roots []*plan.Node
	for k, r := range child.Roots {
		if k == i || k == j {
			continue
		}
		roots = append(roots, r)
	}
	child.Roots = append(roots, joined)
	return child
}

func refIndexUsable(q *query.Query, table string, cat *schema.Catalog) bool {
	if cat == nil {
		return true
	}
	for _, j := range q.Joins {
		if j.LeftTable == table && cat.HasIndex(table, j.LeftColumn) {
			return true
		}
		if j.RightTable == table && cat.HasIndex(table, j.RightColumn) {
			return true
		}
	}
	for _, pr := range q.Predicates {
		if pr.Table == table && cat.HasIndex(table, pr.Column) {
			return true
		}
	}
	return false
}

func refEncodePlan(f *feature.Featurizer, p *plan.Plan) []*reftest.Tree {
	out := make([]*reftest.Tree, 0, len(p.Roots))
	for _, r := range p.Roots {
		out = append(out, refEncodeNode(f, r, p.Query))
	}
	return out
}

func refEncodeNode(f *feature.Featurizer, n *plan.Node, q *query.Query) *reftest.Tree {
	if n == nil {
		return nil
	}
	vec := make([]float64, f.PlanVectorSize())
	if n.IsLeaf() {
		base := plan.NumJoinOps + 2*f.Catalog.TableIndex(n.Table)
		if idx := f.Catalog.TableIndex(n.Table); idx >= 0 {
			switch n.Scan {
			case plan.TableScan:
				vec[base] = 1
			case plan.IndexScan:
				vec[base+1] = 1
			default:
				vec[base] = 1
				vec[base+1] = 1
			}
		}
		refAppendCardinality(f, vec, q, n)
		return reftest.Leaf(vec)
	}
	left := refEncodeNode(f, n.Left, q)
	right := refEncodeNode(f, n.Right, q)
	vec[int(n.Join)] = 1
	for i := plan.NumJoinOps; i < plan.NumJoinOps+2*f.Catalog.NumRelations(); i++ {
		v := 0.0
		if left != nil && left.Data[i] > 0 {
			v = 1
		}
		if right != nil && right.Data[i] > 0 {
			v = 1
		}
		vec[i] = v
	}
	refAppendCardinality(f, vec, q, n)
	return reftest.Join(vec, left, right)
}

func refAppendCardinality(f *feature.Featurizer, vec []float64, q *query.Query, n *plan.Node) {
	if f.Cardinality == nil {
		return
	}
	card := refNodeCardinality(f.Cardinality, q, n)
	work := card
	if n.IsLeaf() {
		if f.Stats != nil {
			work = math.Max(f.Stats.TableRows(n.Table), 1)
		}
	} else {
		left := refNodeCardinality(f.Cardinality, q, n.Left)
		right := refNodeCardinality(f.Cardinality, q, n.Right)
		if n.Join == plan.LoopJoin {
			work = left*right + card
		} else {
			work = left + right + card
		}
	}
	vec[len(vec)-2] = math.Log10(1 + math.Max(card, 0))
	vec[len(vec)-1] = math.Log10(1 + math.Max(work, 0))
}

// refNodeCardinality re-derives a subtree's cardinality from its leaves: the
// histogram source's old recursion, through fresh table sets; any other
// source (true cardinalities) is asked per node.
func refNodeCardinality(src feature.CardinalitySource, q *query.Query, n *plan.Node) float64 {
	h, ok := src.(*feature.HistogramCardinality)
	if !ok {
		return src.NodeCardinality(q, plan.JoinsOf(q), n, 0, 0)
	}
	if n.IsLeaf() {
		return h.Stats.EstimateScanRows(n.Table, q.PredicatesOn(n.Table))
	}
	left := refNodeCardinality(h, q, n.Left)
	right := refNodeCardinality(h, q, n.Right)
	joins := q.JoinsBetween(n.Left.TableSet(), n.Right.TableSet())
	if len(joins) == 0 {
		return left * right
	}
	return h.Stats.EstimateJoinRows(left, right, joins[0])
}

// sameEncoding reports whether the forest roots names in nodes is the
// reference forest ref: the same shape, and bit-equal vectors. It is fast
// enough to run on every scored plan.
func sameEncoding(nodes treeconv.Nodes, roots []int32, ref []*reftest.Tree) bool {
	if len(roots) != len(ref) {
		return false
	}
	var same func(id int32, t *reftest.Tree) bool
	same = func(id int32, t *reftest.Tree) bool {
		row, l, r := nodes.Node(id)
		if len(row) != len(t.Data) || (l < 0) != (t.Left == nil) {
			return false
		}
		for i, v := range row {
			if math.Float64bits(v) != math.Float64bits(t.Data[i]) {
				return false
			}
		}
		return l < 0 || same(l, t.Left) && same(r, t.Right)
	}
	for i, id := range roots {
		if !same(id, ref[i]) {
			return false
		}
	}
	return true
}

// refMinCostContaining is the training target as Experience computed it
// before targets: min{C(Pf) | Pi ⊂ Pf ∧ Pf ∈ E} by a linear scan over the
// query's entries, each tested with the structural subplan check. The
// boolean reports whether any containing plan exists.
func refMinCostContaining(entries []Entry, pi *plan.Plan, cost func(Entry) float64) (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, entry := range entries {
		if entry.Query.ID != pi.Query.ID || !refIsSubplanOf(pi, entry.Plan) {
			continue
		}
		c := cost(entry)
		if c < best {
			best = c
			found = true
		}
	}
	return best, found
}

// refTarget is the target trainingSamplesLocked gives the construction state
// partial of entry: the scan's, or the entry's own cost when no plan
// contains the state.
func refTarget(entries []Entry, entry Entry, partial *plan.Plan, cost func(Entry) float64) float64 {
	if target, ok := refMinCostContaining(entries, partial, cost); ok {
		return target
	}
	return cost(entry)
}

// refIsSubplanOf reports whether p could be completed into the complete plan
// f in the sense of Section 3.1: f is obtainable from p by specifying scans
// and joining p's trees. The check used here is structural: every join node
// of p must appear (same operator, same relation sets on each side) in f,
// and every specified scan of p must have the same access path in f.
func refIsSubplanOf(p, f *plan.Plan) bool {
	if len(f.Roots) != 1 {
		return false
	}
	froot := f.Roots[0]
	for _, r := range p.Roots {
		if !refSubtreeEmbedded(r, froot) {
			return false
		}
	}
	return true
}

// refSubtreeEmbedded reports whether the partial subtree r is consistent
// with some subtree of the complete tree f.
func refSubtreeEmbedded(r *plan.Node, f *plan.Node) bool {
	if f == nil {
		return false
	}
	if refNodeConsistent(r, f) {
		return true
	}
	return refSubtreeEmbedded(r, f.Left) || refSubtreeEmbedded(r, f.Right)
}

// refNodeConsistent reports whether partial node r is consistent with
// complete node f at the same position.
func refNodeConsistent(r *plan.Node, f *plan.Node) bool {
	if r == nil || f == nil {
		return r == nil && f == nil
	}
	if r.IsLeaf() {
		if !f.IsLeaf() || f.Table != r.Table {
			return false
		}
		return r.Scan == plan.UnspecifiedScan || r.Scan == f.Scan
	}
	if f.IsLeaf() {
		return false
	}
	if r.Join != f.Join {
		return false
	}
	return refNodeConsistent(r.Left, f.Left) && refNodeConsistent(r.Right, f.Right)
}

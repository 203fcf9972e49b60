package core

import (
	"math"

	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
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

func refEncodePlan(f *feature.Featurizer, p *plan.Plan) []*treeconv.Tree {
	out := make([]*treeconv.Tree, 0, len(p.Roots))
	for _, r := range p.Roots {
		out = append(out, refEncodeNode(f, r, p.Query))
	}
	return out
}

func refEncodeNode(f *feature.Featurizer, n *plan.Node, q *query.Query) *treeconv.Tree {
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
		return treeconv.NewLeaf(vec)
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
	return treeconv.NewNode(vec, left, right)
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
		return src.NodeCardinality(q, n, 0, 0)
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

// sameForest is reflect.DeepEqual for forests, strict about floats (bit
// equality) and fast enough to run on every scored plan.
func sameForest(a, b []*treeconv.Tree) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameTree(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameTree(a, b *treeconv.Tree) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Data) != len(b.Data) || a.NumNodes() != b.NumNodes() {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

package feature

import (
	"math"
	"slices"
	"testing"

	"neo/internal/plan"
	"neo/internal/stats"
)

// encodeFresh encodes p with a fresh encoder over a fresh node table and
// returns the encoder and p's root ids in it.
func encodeFresh(f *Featurizer, p *plan.Plan) (*PlanEncoder, []int32) {
	enc := f.NewPlanEncoder(p.Query, plan.NewNodes())
	return enc, enc.AppendIDs(nil, p)
}

// TestPerturbedCardinalityConsistentWithinForest: under the Figure 14 error
// model a subplan has one perturbed estimate per encoder — the value in its
// own cardinality slot is the value its parent's work slot was computed
// from, and encoding the plan again does not re-roll it.
func TestPerturbedCardinalityConsistentWithinForest(t *testing.T) {
	db, st := setup(t)
	q := loveQuery()
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot, Stats: st,
		Cardinality: &HistogramCardinality{Stats: st}}
	inner := plan.Join2(plan.HashJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.IndexScan))
	p := &plan.Plan{Query: q, Roots: []*plan.Node{plan.Join2(plan.LoopJoin, inner, plan.Leaf("keyword", plan.TableScan))}}

	enc := f.NewPlanEncoder(q, plan.NewNodes())
	enc.Error = stats.NewErrorModel(3, 11)
	root := enc.AppendIDs(nil, p)[0]
	est := func(id int32) float64 { row, _, _ := enc.Node(id); return math.Pow(10, row[len(row)-2]) - 1 }
	work := func(id int32) float64 { row, _, _ := enc.Node(id); return math.Pow(10, row[len(row)-1]) - 1 }
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

	_, left, right := enc.Node(root)
	if want := est(left)*est(right) + est(root); !near(work(root), want) {
		t.Errorf("loop join work slot %g, but its inputs' and its own cardinality slots give %g", work(root), want)
	}
	_, ll, lr := enc.Node(left)
	if want := est(ll) + est(lr) + est(left); !near(work(left), want) {
		t.Errorf("hash join work slot %g, but its inputs' and its own cardinality slots give %g", work(left), want)
	}
	before, _, _ := enc.Node(root)
	before = slices.Clone(before)
	if again := enc.AppendIDs(nil, p)[0]; again != root {
		t.Fatalf("re-encoding a plan with the same encoder gave root id %d, then %d", root, again)
	}
	if after, _, _ := enc.Node(root); !slices.Equal(after, before) {
		t.Errorf("re-encoding a plan with the same encoder re-rolled its perturbed estimates")
	}
}

// TestEncodingAJoinAllocatesOnlyItsRow: a child plan whose only new node is a
// join — a search's commonest child — costs its encoder one allocation, the
// join's row.
func TestEncodingAJoinAllocatesOnlyItsRow(t *testing.T) {
	db, st := setup(t)
	q := loveQuery()
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot, Stats: st,
		Cardinality: &HistogramCardinality{Stats: st}}
	nodes := plan.NewNodes()
	mk, ti, kw := nodes.Leaf("movie_keyword", plan.TableScan), nodes.Leaf("title", plan.IndexScan), nodes.Leaf("keyword", plan.TableScan)
	parent := &plan.Plan{Query: q, Roots: []*plan.Node{mk, ti, kw}}
	child := &plan.Plan{Query: q, Roots: []*plan.Node{nodes.Join(plan.HashJoin, mk, ti), kw}}

	// One encoder per run, each holding the parent already: the child's
	// join is then its one new node.
	const runs = 20
	encs := make([]*PlanEncoder, runs+1)
	for i := range encs {
		encs[i] = f.NewPlanEncoder(q, nodes)
		encs[i].AppendIDs(nil, parent)
	}
	dst := make([]int32, 0, len(child.Roots))
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		dst = encs[next].AppendIDs(dst[:0], child)
		next++
	})
	if allocs != 1 {
		t.Errorf("encoding a one-join child allocated %v times, want 1 (the join's row)", allocs)
	}
	if row, l, r := encs[0].Node(dst[0]); len(row) != f.PlanVectorSize() || l < 0 || r < 0 {
		t.Fatalf("the child's first root is not an encoded join: row %d wide, children %d, %d", len(row), l, r)
	}
}

package feature

import (
	"math"
	"reflect"
	"testing"

	"neo/internal/plan"
	"neo/internal/stats"
	"neo/internal/treeconv"
)

// TestPerturbedCardinalityConsistentWithinForest: under the Figure 14 error
// model a subplan has one perturbed estimate per encoder — the value in its
// own cardinality slot is the value its parent's work slot was computed
// from, and encoding the plan again does not re-roll it.
func TestPerturbedCardinalityConsistentWithinForest(t *testing.T) {
	db, st := setup(t)
	q := loveQuery()
	f := &Featurizer{Catalog: db.Catalog, Encoding: OneHot, Stats: st,
		Cardinality: &HistogramCardinality{Stats: st}, Error: stats.NewErrorModel(3, 11)}
	inner := plan.Join2(plan.HashJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.IndexScan))
	p := &plan.Plan{Query: q, Roots: []*plan.Node{plan.Join2(plan.LoopJoin, inner, plan.Leaf("keyword", plan.TableScan))}}

	enc := f.NewPlanEncoder(q)
	root := enc.Encode(p)[0]
	est := func(tr *treeconv.Tree) float64 { return math.Pow(10, tr.Data[len(tr.Data)-2]) - 1 }
	work := func(tr *treeconv.Tree) float64 { return math.Pow(10, tr.Data[len(tr.Data)-1]) - 1 }
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

	if want := est(root.Left)*est(root.Right) + est(root); !near(work(root), want) {
		t.Errorf("loop join work slot %g, but its inputs' and its own cardinality slots give %g", work(root), want)
	}
	if want := est(root.Left.Left) + est(root.Left.Right) + est(root.Left); !near(work(root.Left), want) {
		t.Errorf("hash join work slot %g, but its inputs' and its own cardinality slots give %g", work(root.Left), want)
	}
	if again := enc.Encode(p)[0]; !reflect.DeepEqual(again, root) {
		t.Errorf("re-encoding a plan with the same encoder re-rolled its perturbed estimates")
	}
}

// Benchmark compatibility: EncodePlan keeps the benchmark harness's probe
// (benchmark/probe.go) compiling, with valuenet.Snapshot.PredictBatch and
// treeconv.Tree. Delete it once the probe scores through
// valuenet.Snapshot.NewScorer over one plan encoder per search.
package feature

import (
	"neo/internal/plan"
	"neo/internal/treeconv"
)

// EncodePlan encodes p with a fresh PlanEncoder, over a fresh node table,
// and returns a reference to each of its roots there.
func (f *Featurizer) EncodePlan(p *plan.Plan) []*treeconv.Tree {
	enc := f.NewPlanEncoder(p.Query, plan.NewNodes())
	ids := enc.AppendIDs(nil, p)
	out := make([]*treeconv.Tree, len(ids))
	for i, id := range ids {
		out[i] = &treeconv.Tree{Nodes: enc, ID: id}
	}
	return out
}

package core

import (
	"math"
	"testing"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/search"
	"neo/internal/treeconv"
)

// scoreLog records every plan a search scores and the score it got.
type scoreLog struct {
	inner  search.BatchScorer
	plans  []*plan.Plan
	scores []float64
}

func (s *scoreLog) ScoreBatch(ps []*plan.Plan) []float64 {
	out := s.inner.ScoreBatch(ps)
	s.plans = append(s.plans, ps...)
	s.scores = append(s.scores, out...)
	return out
}

// TestEncodePlanPredictBatchMatchesScorer holds the compatibility pair the
// benchmark harness's probe scores with — Featurizer.EncodePlan per plan,
// then one Snapshot.PredictBatch over a batch — to the search's own scorer,
// bit for bit, over a batch that interleaves the plans of two queries'
// searches (PredictBatch groups the pairs by query vector).
func TestEncodePlanPredictBatchMatchesScorer(t *testing.T) {
	rig := newRig(t, "postgres")
	n := servingNeo(t, rig)
	other := rig.wl.Queries[0]
	if other.ID == "job-4b" {
		other = rig.wl.Queries[1]
	}
	var logs []*scoreLog
	var qEncs [][]float64
	for _, q := range []*query.Query{rig.wl.ByID("job-4b"), other} {
		log := &scoreLog{inner: n.Scorer(q)}
		if _, err := search.BestFirst(q, log, search.Options{Catalog: rig.feat.Catalog, MaxExpansions: 32}); err != nil {
			t.Fatal(err)
		}
		logs, qEncs = append(logs, log), append(qEncs, n.Featurizer.EncodeQuery(q))
	}
	var queries [][]float64
	var forests [][]*treeconv.Tree
	var want []float64
	for i := 0; i < min(len(logs[0].plans), len(logs[1].plans)); i++ {
		for k, log := range logs {
			queries = append(queries, qEncs[k])
			forests = append(forests, n.Featurizer.EncodePlan(log.plans[i]))
			want = append(want, log.scores[i])
		}
	}
	if len(want) < 200 {
		t.Fatalf("only %d plans to compare", len(want))
	}
	got := n.Snapshot().PredictBatch(queries, forests)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("pair %d: PredictBatch %v (%#x), the search's scorer %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

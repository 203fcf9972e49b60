package core

import (
	"testing"

	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/search"
	"neo/internal/valuenet"
)

// referenceScorer scores every plan from scratch with the per-sample float64
// forward pass of a live network (Network.Predict on Featurizer.EncodePlan):
// the reference the serving snapshot's float32 scorer is held to.
type referenceScorer struct {
	net  *valuenet.Network
	feat *feature.Featurizer
	qEnc []float64
}

func (s *referenceScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = s.net.Predict(s.qEnc, s.feat.EncodePlan(p))
	}
	return out
}

// TestPlanChoiceParityFloat32 is the correctness bar for scoring in float32:
// on the seeded reference workload, the BestFirst and Greedy plan choices of
// a bootstrapped Neo's serving snapshot are identical to those of the
// per-sample float64 reference on the live network it was frozen from.
// Scores may differ within the 1e-5 relative tolerance; the argmin over
// candidate plans must not: float32 keeps ~7 significant digits while the
// workload's smallest nonzero decision margin is ~2e-3, and exact ties
// resolve by deterministic candidate order under both.
func TestPlanChoiceParityFloat32(t *testing.T) {
	rig := newRig(t, "postgres")
	n := rig.neo
	if err := n.Bootstrap(rig.wl.Queries[:8], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	strategies := []struct {
		name   string
		search func(*query.Query, search.BatchScorer, search.Options) (*search.Result, error)
		opts   search.Options
	}{
		{"BestFirst", search.BestFirst, search.Options{Catalog: n.Featurizer.Catalog, MaxExpansions: n.Config.SearchExpansions}},
		{"Greedy", search.Greedy, search.Options{Catalog: n.Featurizer.Catalog}},
	}
	for _, q := range rig.wl.Queries {
		ref := &referenceScorer{net: n.Net, feat: n.Featurizer, qEnc: n.Featurizer.EncodeQuery(q)}
		for _, s := range strategies {
			want, err := s.search(q, ref, s.opts)
			if err != nil {
				t.Fatalf("%s reference %s: %v", s.name, q.ID, err)
			}
			got, err := s.search(q, n.Scorer(q), s.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, q.ID, err)
			}
			if got.Plan.Signature() != want.Plan.Signature() {
				t.Errorf("%s plan for %s diverged from the float64 reference:\n  ref: %s\n  got: %s",
					s.name, q.ID, want.Plan.Signature(), got.Plan.Signature())
			}
		}
	}
}

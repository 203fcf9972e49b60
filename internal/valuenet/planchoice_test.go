package valuenet_test

import (
	"testing"

	"neo/internal/core"
	"neo/internal/datagen"
	"neo/internal/engine"
	"neo/internal/expert"
	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/search"
	"neo/internal/stats"
	"neo/internal/valuenet"
	"neo/internal/workload"
)

// referenceScorer scores every plan from scratch with the per-sample float64
// reference network on a live network (valuenet.RefPredict on a fresh plan
// encoder): the reference the serving snapshot's float32 scorer is held to.
type referenceScorer struct {
	net  *valuenet.Network
	feat *feature.Featurizer
	qEnc []float64
}

func (s *referenceScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		enc := s.feat.NewPlanEncoder(p.Query, plan.NewNodes())
		out[i] = valuenet.RefPredict(s.net, s.qEnc, enc, enc.AppendIDs(nil, p))
	}
	return out
}

// newPlanChoiceRig builds the seeded reference workload: a Neo on a
// histogram featurizer over IMDB at scale 0.25 (seed 41), the postgres
// engine, a small value network (seed 3), the native optimizer as expert and
// 12 JOB queries (seed 5).
func newPlanChoiceRig(t *testing.T) (*core.Neo, *workload.Workload, func(*query.Query) (*plan.Plan, error)) {
	t.Helper()
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.25, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := engine.ProfileByName("postgres")
	if err != nil {
		t.Fatal(err)
	}
	feat := &feature.Featurizer{Catalog: db.Catalog, Encoding: feature.Histogram, Stats: st}
	cfg := core.DefaultConfig()
	cfg.SearchExpansions = 96
	cfg.TrainEpochs = 6
	cfg.ValueNet = valuenet.Config{
		QueryLayers:  []int{32, 16},
		TreeChannels: []int{16, 8},
		HeadLayers:   []int{16},
		LearningRate: 2e-3,
		UseLayerNorm: true,
		Seed:         3,
	}
	n := core.New(engine.New(prof, db), feat, cfg)
	pg := expert.NativeOptimizer(engine.New(engine.PostgreSQLProfile(), db), st, db.Catalog)
	wl, err := workload.JOB(db, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	expertPlan := func(q *query.Query) (*plan.Plan, error) {
		p, _, err := pg.Optimize(q)
		return p, err
	}
	return n, wl, expertPlan
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
	n, wl, expertPlan := newPlanChoiceRig(t)
	if err := n.Bootstrap(wl.Queries[:8], expertPlan); err != nil {
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
	for _, q := range wl.Queries {
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

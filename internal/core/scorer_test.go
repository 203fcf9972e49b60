package core

import (
	"math"
	"testing"

	"neo/internal/feature"
	"neo/internal/nn"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/search"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/internal/workload"
)

// exactScorer drives a search with the product scorer while holding every
// batch it scores to the same plans scored from scratch: each encoded by
// Featurizer.EncodePlan (a fresh encoder, so no two forests share a tree),
// through PredictBatch on the same snapshot (a fresh scorer, so nothing is
// recalled).
type exactScorer struct {
	t     *testing.T
	inner search.BatchScorer
	snap  *valuenet.Snapshot
	feat  *feature.Featurizer
	qEnc  []float64
	plans int
}

func (s *exactScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	got := s.inner.ScoreBatch(ps)
	queries := make([][]float64, len(ps))
	forests := make([][]*treeconv.Tree, len(ps))
	for i, p := range ps {
		queries[i], forests[i] = s.qEnc, s.feat.EncodePlan(p)
	}
	want := s.snap.PredictBatch(queries, forests)
	if len(got) != len(want) {
		s.t.Fatalf("scorer returned %d scores for %d plans", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			s.t.Fatalf("plan %d of a batch of %d (%s): scorer says %v (%#x), PredictBatch %v (%#x)",
				i, len(ps), ps[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	s.plans += len(ps)
	return got
}

// servingNeo is a bootstrapped Neo with the value network's default layer
// sizes (the rig's own is narrower) and histogram cardinalities in the plan
// encoding, as the daemons configure it.
func servingNeo(t testing.TB, rig *testRig) *Neo {
	t.Helper()
	rig.feat.Cardinality = &feature.HistogramCardinality{Stats: rig.st}
	cfg := rig.neo.Config
	cfg.ValueNet = valuenet.DefaultConfig()
	n := New(rig.eng, rig.feat, cfg)
	if err := n.Bootstrap(rig.wl.Queries[:4], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSearchScoresMatchPredictBatch: every batch of 256-expansion best-first
// searches and of greedy descents over TestSearchStatesMatchReference's
// corpus — with and without cross products — gets bit for bit the scores
// the same plans get from scratch, on a float64 snapshot, a float32 snapshot
// and a float32 snapshot on the portable GEMM kernel: what a search's scorer
// recalls from earlier batches never changes a score.
func TestSearchScoresMatchPredictBatch(t *testing.T) {
	rig := newRig(t, "postgres")
	n := servingNeo(t, rig)
	nQueries := 20
	if testing.Short() {
		nQueries = 6
	}
	wl, err := workload.JOB(rig.db, nQueries, 97)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, p valuenet.Precision) {
		republishAt(n, p)
		plans := 0
		for qi, q := range wl.Queries {
			opts := search.Options{Catalog: rig.db.Catalog, MaxExpansions: 256, AllowCrossProducts: qi%2 == 1 && len(q.Relations) <= 5}
			for _, strategy := range []func(*query.Query, search.BatchScorer, search.Options) (*search.Result, error){search.BestFirst, search.Greedy} {
				s := &exactScorer{t: t, inner: n.Scorer(q), snap: n.Snapshot(),
					feat: n.Featurizer, qEnc: n.Featurizer.EncodeQuery(q)}
				if _, err := strategy(q, s, opts); err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				plans += s.plans
			}
		}
		if plans < 500*nQueries {
			t.Errorf("only %d plans scored over %d queries: the searches did not exercise the scorer", plans, nQueries)
		}
	}
	t.Run("f64", func(t *testing.T) { run(t, valuenet.PrecisionFloat64) })
	t.Run("f32", func(t *testing.T) { run(t, valuenet.PrecisionFloat32) })
	t.Run("f32-scalar", func(t *testing.T) {
		defer nn.SetScalarGemmForTest(nn.SetScalarGemmForTest(true))
		run(t, valuenet.PrecisionFloat32)
	})
}

// BenchmarkSearchScore times the value network's share of one whole search:
// the ScoreBatch calls of a real 256-expansion search on a 5-join query,
// recorded once and encoded once by one search-long encoder (so forests
// share subtrees exactly as the search's did), replayed through a fresh
// scorer — what netScorer does. nodes/plan is the number of tree nodes
// convolved per plan scored.
func BenchmarkSearchScore(b *testing.B) {
	rig := newRig(b, "postgres")
	n := servingNeo(b, rig)
	q := rig.wl.ByID("job-4b")
	rec := &recordingScorer{inner: n.Scorer(q)}
	if _, err := search.BestFirst(q, rec, search.Options{Catalog: rig.feat.Catalog, MaxExpansions: 256}); err != nil {
		b.Fatal(err)
	}
	qEnc := n.Featurizer.EncodeQuery(q)
	enc := n.Featurizer.NewPlanEncoder(q)
	calls := make([][][]*treeconv.Tree, len(rec.calls))
	plans, nodes := 0, 0
	for c, ps := range rec.calls {
		for _, p := range ps {
			forest := enc.Encode(p)
			calls[c] = append(calls[c], forest)
			for _, tree := range forest {
				nodes += tree.NumNodes()
			}
		}
		plans += len(ps)
	}
	for _, p := range []valuenet.Precision{valuenet.PrecisionFloat32, valuenet.PrecisionFloat64} {
		republishAt(n, p)
		snap := n.Snapshot()
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			var st valuenet.ScorerStats
			for i := 0; i < b.N; i++ {
				sc := snap.NewScorer(qEnc)
				for _, forests := range calls {
					sc.Score(forests)
				}
				st = sc.Stats()
			}
			if st.Plans != plans || st.Nodes != nodes {
				b.Fatalf("scorer counted %d plans / %d nodes, the recording holds %d / %d", st.Plans, st.Nodes, plans, nodes)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*plans), "ns/plan")
			b.ReportMetric(float64(st.Computed)/float64(plans), "nodes/plan")
			b.ReportMetric(float64(plans), "plans/op")
		})
	}
}

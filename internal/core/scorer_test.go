package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"neo/internal/feature"
	"neo/internal/nn"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/route"
	"neo/internal/search"
	"neo/internal/valuenet"
	"neo/internal/workload"
)

// fromScratch returns a fresh scorer for qEnc on snap and p's forest in a
// fresh encoder over a fresh node table: p scored with nothing recalled.
func fromScratch(snap *valuenet.Snapshot, f *feature.Featurizer, qEnc []float64, p *plan.Plan) (*valuenet.Scorer, [][]int32) {
	enc := f.NewPlanEncoder(p.Query, plan.NewNodes())
	return snap.NewScorer(qEnc, enc), [][]int32{enc.AppendIDs(nil, p)}
}

// exactScorer drives a search with the product scorer while holding every
// batch it scores to the same plans scored from scratch: encoded by a fresh
// encoder over a fresh node table and scored by a fresh scorer on the same
// snapshot, so nothing from earlier batches is recalled.
type exactScorer struct {
	t     *testing.T
	inner search.BatchScorer
	snap  *valuenet.Snapshot
	feat  *feature.Featurizer
	q     *query.Query
	qEnc  []float64
	plans int
}

func (s *exactScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	got := s.inner.ScoreBatch(ps)
	enc := s.feat.NewPlanEncoder(s.q, plan.NewNodes())
	forests := make([][]int32, len(ps))
	for i, p := range ps {
		forests[i] = enc.AppendIDs(nil, p)
	}
	want := s.snap.NewScorer(s.qEnc, enc).Score(forests)
	if len(got) != len(want) {
		s.t.Fatalf("scorer returned %d scores for %d plans", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			s.t.Fatalf("plan %d of a batch of %d (%s): scorer says %v (%#x), from scratch %v (%#x)",
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
// the same plans get from scratch, predicted as a batch by a fresh scorer
// over a fresh encoder, on the assembly GEMM kernel and on the portable one:
// what a search's scorer recalls from earlier batches never changes a score.
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
	run := func(t *testing.T) {
		plans := 0
		for qi, q := range wl.Queries {
			opts := search.Options{Catalog: rig.db.Catalog, MaxExpansions: 256, AllowCrossProducts: qi%2 == 1 && len(q.Relations) <= 5}
			for _, strategy := range []func(*query.Query, search.BatchScorer, search.Options) (*search.Result, error){search.BestFirst, search.Greedy} {
				s := &exactScorer{t: t, inner: n.Scorer(q), snap: n.Snapshot(),
					feat: n.Featurizer, q: q, qEnc: n.Featurizer.EncodeQuery(q)}
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
	t.Run("f32", run)
	t.Run("f32-scalar", func(t *testing.T) {
		defer nn.SetScalarKernelsForTest(nn.SetScalarKernelsForTest(true))
		run(t)
	})
}

// TestObserveLatencyRegretMatchesPredictBatch pins the router's regret
// estimate to the snapshot's from-scratch prediction: after one
// ObserveLatency for a fast-path query, its class's mean regret is the
// observed latency over a fresh scorer's score for the query's initial
// state, exactly — scoring through a search's scorer changes no bit of it.
func TestObserveLatencyRegretMatchesPredictBatch(t *testing.T) {
	rig := newRig(t, "postgres")
	cfg := rig.neo.Config
	cfg.Routing = route.Auto
	n := New(rig.eng, rig.feat, cfg)
	if err := n.Bootstrap(rig.wl.Queries[:4], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	var q *query.Query
	for _, c := range rig.wl.Queries {
		if _, _, err := n.Optimize(c); err != nil {
			t.Fatal(err)
		}
		if n.router.NeedsOutcome(c) {
			q = c
			break
		}
	}
	if q == nil {
		t.Fatal("no workload query routes to the fast path")
	}
	const observed = 1234.5
	n.ObserveLatency(q, observed)

	sc, forest := fromScratch(n.Snapshot(), n.Featurizer, n.Featurizer.EncodeQuery(q), plan.Initial(q, plan.NewNodes()))
	want := observed / sc.Score(forest)[0]
	key := route.Classify(q).Key()
	for _, c := range n.RouteStats().Classes {
		if c.Class != key {
			continue
		}
		if c.RegretSamples != 1 || c.RegretMean != want {
			t.Fatalf("class %s: %d regret samples, mean %v (%#x); want 1 sample, mean %v (%#x)",
				key, c.RegretSamples, c.RegretMean, math.Float64bits(c.RegretMean), want, math.Float64bits(want))
		}
		return
	}
	t.Fatalf("class %s missing from the route stats", key)
}

// BenchmarkSearch times one whole search as a serving miss runs it: a
// 256-expansion best-first search on a 5-join query with the serving
// network's scorer — edits, the seen set, the frontier, plan encoding and
// scoring. plans/op is the number of plans scored.
func BenchmarkSearch(b *testing.B) {
	rig := newRig(b, "postgres")
	n := servingNeo(b, rig)
	q := rig.wl.ByID("job-4b")
	opts := search.Options{Catalog: rig.feat.Catalog, MaxExpansions: 256}
	var res *search.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = search.BestFirst(q, n.Scorer(q), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Evaluations), "plans/op")
}

// BenchmarkSearchScore times the value network's share of one whole search:
// the ScoreBatch calls of a real 256-expansion search on a 5-join query,
// recorded once and encoded once by one search-long encoder over one node
// table (so forests share subtree ids exactly as the search's did), replayed
// through a fresh scorer — what netScorer does. nodes/plan is the number of tree nodes
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
	enc := n.Featurizer.NewPlanEncoder(q, plan.NewNodes())
	calls := make([][][]int32, len(rec.calls))
	plans, nodes := 0, 0
	for c, ps := range rec.calls {
		for _, p := range ps {
			calls[c] = append(calls[c], enc.AppendIDs(nil, p))
			for _, r := range p.Roots {
				nodes += r.NumNodes()
			}
		}
		plans += len(ps)
	}
	snap := n.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	var st valuenet.ScorerStats
	for i := 0; i < b.N; i++ {
		sc := snap.NewScorer(qEnc, enc)
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
}

// batchOnly hides every method of a scorer but ScoreBatch, so a search
// builds each child it scores and shows it whole, as it does for any plain
// BatchScorer (the benchmark's probe, ScorerFunc).
type batchOnly struct{ search.BatchScorer }

// TestEditSearchMatchesMaterializedSearch: best-first searches at budgets 4,
// 32 and 256 and greedy descents, with and without cross products, over
// JOB queries and the rig's workload, return the same plan, the same score
// bits and the same counts whether the serving scorer is shown an
// expansion's children as edits of the parent or as built plans.
func TestEditSearchMatchesMaterializedSearch(t *testing.T) {
	rig := newRig(t, "postgres")
	n := servingNeo(t, rig)
	nQueries := 40
	if testing.Short() {
		nQueries = 8
	}
	wl, err := workload.JOB(rig.db, nQueries, 97)
	if err != nil {
		t.Fatal(err)
	}
	queries := append(wl.Queries, rig.wl.Queries...)
	strategies := map[string]func(*query.Query, search.BatchScorer, search.Options) (*search.Result, error){
		"best-first": search.BestFirst, "greedy": search.Greedy}
	searches := 0
	for _, q := range queries {
		for _, budget := range []int{4, 32, 256} {
			for _, cross := range []bool{false, true} {
				opts := search.Options{Catalog: rig.db.Catalog, MaxExpansions: budget, AllowCrossProducts: cross}
				for name, strategy := range strategies {
					if name == "greedy" && budget != 4 {
						continue // a descent has no budget
					}
					edits, err := strategy(q, n.Scorer(q), opts)
					if err != nil {
						t.Fatalf("%s %s: %v", q.ID, name, err)
					}
					built, err := strategy(q, batchOnly{n.Scorer(q)}, opts)
					if err != nil {
						t.Fatalf("%s %s: %v", q.ID, name, err)
					}
					if edits.Plan.String() != built.Plan.String() || math.Float64bits(edits.Score) != math.Float64bits(built.Score) ||
						edits.Expansions != built.Expansions || edits.Evaluations != built.Evaluations || edits.HurryUp != built.HurryUp {
						t.Fatalf("%s %s, budget %d, cross products %v:\nedits: %s score %v (%#x), %d expansions, %d evaluations, hurry-up %v\nbuilt: %s score %v (%#x), %d expansions, %d evaluations, hurry-up %v",
							q.ID, name, budget, cross,
							edits.Plan, edits.Score, math.Float64bits(edits.Score), edits.Expansions, edits.Evaluations, edits.HurryUp,
							built.Plan, built.Score, math.Float64bits(built.Score), built.Expansions, built.Evaluations, built.HurryUp)
					}
					searches++
				}
			}
		}
	}
	t.Logf("%d searches over %d queries agree", searches, len(queries))
}

// BenchmarkSearchFiveJoin times a serving miss's search as the serving
// fleet meets it: a 256-expansion best-first search with the serving
// network's scorer, cycling over the five-join queries of a JOB workload,
// one search at a time (serial) and two at once on two cores (parallel),
// where the collector competes with the second search.
func BenchmarkSearchFiveJoin(b *testing.B) {
	rig := newRig(b, "postgres")
	n := servingNeo(b, rig)
	wl, err := workload.JOB(rig.db, 60, 97)
	if err != nil {
		b.Fatal(err)
	}
	var queries []*query.Query
	for _, q := range wl.Queries {
		if len(q.Joins) == 5 {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		b.Fatal("the workload has no five-join query")
	}
	opts := search.Options{Catalog: rig.feat.Catalog, MaxExpansions: 256}
	run := func(i int) error {
		q := queries[i%len(queries)]
		_, err := search.BestFirst(q, n.Scorer(q), opts)
		return err
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		b.SetParallelism(1)
		b.ReportAllocs()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := run(int(next.Add(1))); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/search"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
)

// TestNewFillsOnlyZeroFields is the regression test for the constructor bug
// where any Config with SearchExpansions == 0 was replaced wholesale by
// DefaultConfig, silently discarding the caller's seed, cost function,
// network architecture and training hyperparameters.
func TestNewFillsOnlyZeroFields(t *testing.T) {
	rig := newRig(t, "postgres")
	custom := valuenet.Config{
		QueryLayers:  []int{8},
		TreeChannels: []int{8, 8},
		HeadLayers:   []int{8},
		LearningRate: 5e-4,
		UseLayerNorm: false,
		Seed:         99,
	}
	cfg := Config{
		ValueNet:    custom,
		TrainEpochs: 3,
		Cost:        RelativeCost,
		Seed:        1234,
		// SearchExpansions is left zero on purpose.
	}
	n := New(rig.eng, rig.feat, cfg)
	got := n.Config
	if got.Seed != 1234 {
		t.Errorf("Seed = %d, want the caller's 1234", got.Seed)
	}
	if got.Cost != RelativeCost {
		t.Errorf("Cost = %v, want the caller's RelativeCost", got.Cost)
	}
	if got.TrainEpochs != 3 {
		t.Errorf("TrainEpochs = %d, want the caller's 3", got.TrainEpochs)
	}
	if len(got.ValueNet.QueryLayers) != 1 || got.ValueNet.QueryLayers[0] != 8 || got.ValueNet.Seed != 99 {
		t.Errorf("ValueNet = %+v, want the caller's custom architecture", got.ValueNet)
	}
	def := DefaultConfig()
	if got.SearchExpansions != def.SearchExpansions {
		t.Errorf("SearchExpansions = %d, want default %d", got.SearchExpansions, def.SearchExpansions)
	}
}

// TestConstructionStatesSiblingJoinOrder pins the ordering contract of the
// construction-state sort: equal-size sibling joins are applied in walk
// order (left subtree first), so training targets are deterministic.
func TestConstructionStatesSiblingJoinOrder(t *testing.T) {
	q := query.New("q", []string{"a", "b", "c", "d"},
		[]query.JoinPredicate{
			{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "x"},
			{LeftTable: "c", LeftColumn: "y", RightTable: "d", RightColumn: "y"},
			{LeftTable: "b", LeftColumn: "z", RightTable: "c", RightColumn: "z"},
		}, nil)
	// ((a ⋈ b) ⋈ (c ⋈ d)): the two inner joins have equal subtree size.
	complete := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin,
			plan.Join2(plan.MergeJoin, plan.Leaf("a", plan.TableScan), plan.Leaf("b", plan.TableScan)),
			plan.Join2(plan.MergeJoin, plan.Leaf("c", plan.TableScan), plan.Leaf("d", plan.TableScan))),
	}}
	states := constructionStates(complete, plan.NewNodes())
	// initial + leaves + 3 joins = 5 states.
	if len(states) != 5 {
		t.Fatalf("expected 5 construction states, got %d", len(states))
	}
	// After the leaves state, the left sibling (a ⋈ b) must be applied
	// before the right sibling (c ⋈ d).
	afterFirstJoin := states[2]
	if len(afterFirstJoin.Roots) != 3 {
		t.Fatalf("state after first join should be a 3-root forest, got %s", afterFirstJoin)
	}
	foundAB := false
	for _, r := range afterFirstJoin.Roots {
		if !r.IsLeaf() {
			tables := r.Tables()
			if len(tables) == 2 && ((tables[0] == "a" && tables[1] == "b") || (tables[0] == "b" && tables[1] == "a")) {
				foundAB = true
			}
		}
	}
	if !foundAB {
		t.Errorf("left sibling join (a ⋈ b) should be applied first, state: %s", afterFirstJoin)
	}
	for i, s := range states {
		if !refIsSubplanOf(s, complete) {
			t.Errorf("state %d (%s) is not a subplan of the complete plan", i, s)
		}
	}
	if states[len(states)-1].Signature() != complete.Signature() {
		t.Errorf("final state should equal the complete plan")
	}
}

// bootstrapRig builds a rig and bootstraps it from the expert; used in pairs
// by the determinism tests (two independently built rigs are bit-identical
// for a fixed seed), which run one at GOMAXPROCS 1 and the other at 8 to pit
// the serial path against the parallel one.
func bootstrapRig(t *testing.T) (*testRig, []*query.Query) {
	t.Helper()
	rig := newRig(t, "postgres")
	train, _ := rig.wl.Split(0.8, 1)
	if err := rig.neo.Bootstrap(train, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	return rig, train
}

// TestRunEpisodeParallelMatchesSerial asserts the pipeline's determinism
// contract: an 8-worker episode produces bit-identical EpisodeStats — and
// therefore identical downstream training — to the serial path.
func TestRunEpisodeParallelMatchesSerial(t *testing.T) {
	serialRig, serialTrain := bootstrapRig(t)
	parallelRig, parallelTrain := bootstrapRig(t)

	for ep := 1; ep <= 2; ep++ {
		setProcs(t, 1)
		ss, err := serialRig.neo.RunEpisode(ep, serialTrain)
		if err != nil {
			t.Fatal(err)
		}
		setProcs(t, 8)
		ps, err := parallelRig.neo.RunEpisode(ep, parallelTrain)
		if err != nil {
			t.Fatal(err)
		}
		if ss.TotalLatency != ps.TotalLatency {
			t.Errorf("episode %d: TotalLatency differs: serial %v, parallel %v", ep, ss.TotalLatency, ps.TotalLatency)
		}
		if ss.NormalizedLatency != ps.NormalizedLatency {
			t.Errorf("episode %d: NormalizedLatency differs: serial %v, parallel %v", ep, ss.NormalizedLatency, ps.NormalizedLatency)
		}
		if ss.TrainLoss != ps.TrainLoss {
			t.Errorf("episode %d: TrainLoss differs: serial %v, parallel %v", ep, ss.TrainLoss, ps.TrainLoss)
		}
		if len(ss.QueryLatencies) != len(ps.QueryLatencies) {
			t.Fatalf("episode %d: latency map sizes differ", ep)
		}
		for id, lat := range ss.QueryLatencies {
			if ps.QueryLatencies[id] != lat {
				t.Errorf("episode %d query %s: latency differs: serial %v, parallel %v", ep, id, lat, ps.QueryLatencies[id])
			}
		}
	}
	if serialRig.neo.Experience.Len() != parallelRig.neo.Experience.Len() {
		t.Errorf("experience sizes diverged: serial %d, parallel %d",
			serialRig.neo.Experience.Len(), parallelRig.neo.Experience.Len())
	}
}

// TestEvaluateParallelMatchesSerial asserts that parallel evaluation returns
// identical per-query plans and latencies to the serial path.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	serialRig, serialTrain := bootstrapRig(t)
	parallelRig, parallelTrain := bootstrapRig(t)

	setProcs(t, 1)
	sTotal, sPer, err := serialRig.neo.Evaluate(serialTrain)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	pTotal, pPer, err := parallelRig.neo.Evaluate(parallelTrain)
	if err != nil {
		t.Fatal(err)
	}
	if sTotal != pTotal {
		t.Errorf("total latency differs: serial %v, parallel %v", sTotal, pTotal)
	}
	for id, lat := range sPer {
		if pPer[id] != lat {
			t.Errorf("query %s: latency differs: serial %v, parallel %v", id, lat, pPer[id])
		}
	}
	// The chosen plans themselves must match query by query.
	for _, i := range []int{0, 1, 2} {
		sp, _, err := serialRig.neo.Optimize(serialTrain[i])
		if err != nil {
			t.Fatal(err)
		}
		pp, _, err := parallelRig.neo.Optimize(parallelTrain[i])
		if err != nil {
			t.Fatal(err)
		}
		if sp.Signature() != pp.Signature() {
			t.Errorf("query %s: plans differ across serial/parallel evaluation", serialTrain[i].ID)
		}
	}
}

// TestConcurrentOptimizeMatchesSerial: 8 searches running at once on one
// snapshot plan exactly what the same searches plan one after another — same
// plan, bit-equal score, same search effort. Each search owns its scorer and
// the snapshot is immutable, so concurrency has nothing to leak through.
func TestConcurrentOptimizeMatchesSerial(t *testing.T) {
	rig, _ := bootstrapRig(t)
	n := rig.neo
	queries := rig.wl.Queries[:8]

	type outcome struct {
		sig         string
		score       float64
		exps, evals int
	}
	optimize := func(q *query.Query) outcome {
		p, res, err := n.Optimize(q)
		if err != nil {
			t.Errorf("%s: %v", q.ID, err)
			return outcome{}
		}
		return outcome{p.Signature(), res.Score, res.Expansions, res.Evaluations}
	}
	serial := make([]outcome, len(queries))
	for i, q := range queries {
		serial[i] = optimize(q)
	}
	concurrent := make([]outcome, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = optimize(q)
		}()
	}
	wg.Wait()
	for i, q := range queries {
		if concurrent[i] != serial[i] {
			t.Errorf("%s: concurrent search %+v, serial %+v", q.ID, concurrent[i], serial[i])
		}
	}
}

// TestConcurrentSearchNodeTables runs two searches of one query — each
// drawing its states from its own scorer's node table — while a third
// goroutine scores a cached result plan, whose nodes are another search's
// table's, through fresh scorers that intern them into their own. Nodes are
// immutable and carry a table's generation, not a pointer to it, and no
// table is shared, so there is nothing for the race detector to find; the
// two searches agree with the cached one, and every score of the cached plan
// equals its score from scratch.
func TestConcurrentSearchNodeTables(t *testing.T) {
	rig, _ := bootstrapRig(t)
	n := rig.neo
	q := rig.wl.ByID("job-4b")
	cached, cachedRes, _, err := n.OptimizeCached(q)
	if err != nil {
		t.Fatal(err)
	}
	want := n.Snapshot().PredictBatch([][]float64{n.Featurizer.EncodeQuery(q)}, [][]*treeconv.Tree{n.Featurizer.EncodePlan(cached)})[0]
	opts := search.Options{Catalog: n.Featurizer.Catalog, MaxExpansions: n.Config.SearchExpansions}

	results := make([]*search.Result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := search.BestFirst(q, n.Scorer(q), opts)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 20 {
			for _, got := range n.Scorer(q).ScoreBatch([]*plan.Plan{cached, cached}) {
				if got != want {
					t.Errorf("the cached plan scores %v through a search's scorer, %v from scratch", got, want)
					return
				}
			}
		}
	}()
	wg.Wait()
	for i, res := range results {
		if res != nil && (res.Plan.Signature() != cached.Signature() || res.Score != cachedRes.Score) {
			t.Errorf("search %d: %s scored %v; the cached search found %s scored %v", i, res.Plan, res.Score, cached, cachedRes.Score)
		}
	}
}

// retrainInBackground runs one retraining round on its own goroutine and
// delivers the final loss.
func retrainInBackground(n *Neo) <-chan float64 {
	done := make(chan float64, 1)
	go func() { done <- n.Retrain() }()
	return done
}

// TestRetrainAsyncDoubleBuffering checks the snapshot/swap lifecycle: while
// a background retraining round runs, searches serve the old snapshot;
// after the swap the version moves and the old snapshot still scores with
// its original weights. Run with -race, this also exercises concurrent
// planning + baseline writes against the training round.
func TestRetrainAsyncDoubleBuffering(t *testing.T) {
	rig, train := bootstrapRig(t)
	n := rig.neo

	versionBefore := n.NetVersion()
	snapBefore := n.Snapshot()
	probe := train[0]
	probePlan, _, err := n.Optimize(probe)
	if err != nil {
		t.Fatal(err)
	}
	qEnc := [][]float64{n.Featurizer.EncodeQuery(probe)}
	pEnc := [][]*treeconv.Tree{n.Featurizer.EncodePlan(probePlan)}
	predBefore := snapBefore.PredictBatch(qEnc, pEnc)[0]

	// Grow the experience so the retraining round has new signal.
	if _, err := n.RunEpisode(1, train); err != nil {
		t.Fatal(err)
	}

	done := retrainInBackground(n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				for _, q := range train[:3] {
					if _, _, err := n.Optimize(q); err != nil {
						t.Errorf("concurrent Optimize: %v", err)
						return
					}
					n.SetBaseline(q.ID, float64(100+w))
					n.Baseline(q.ID)
					n.Snapshot().PredictBatch([][]float64{n.Featurizer.EncodeQuery(q)}, [][]*treeconv.Tree{n.Featurizer.EncodePlan(probePlan)})
				}
			}
		}(w)
	}
	wg.Wait()
	loss := <-done
	if math.IsNaN(loss) || loss < 0 {
		t.Errorf("async retrain loss should be a non-negative number, got %v", loss)
	}
	if got := n.NetVersion(); got <= versionBefore+1 {
		// Bootstrap publishes version 1; RunEpisode and the background round add one
		// swap each.
		t.Errorf("NetVersion = %d, want > %d after episode + async retrain", got, versionBefore+1)
	}
	if n.Snapshot() == snapBefore {
		t.Errorf("snapshot should have been swapped")
	}
	// The old snapshot is immutable: it must still score with the weights it
	// was frozen with.
	if got := snapBefore.PredictBatch(qEnc, pEnc)[0]; got != predBefore {
		t.Errorf("old snapshot's prediction changed after retraining: %v -> %v", predBefore, got)
	}
}

// TestConcurrentBaselineAccess hammers SetBaseline/Baseline/cost from many
// goroutines; meaningful under -race (the baseline map used to be
// unguarded).
func TestConcurrentBaselineAccess(t *testing.T) {
	rig := newRig(t, "postgres")
	n := rig.neo
	q := rig.wl.Queries[0]
	entry := Entry{Query: q, Latency: 50}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n.SetBaseline(q.ID, float64(w*200+i+1))
				n.Baseline(q.ID)
				n.cost(entry)
			}
		}(w)
	}
	wg.Wait()
	if _, ok := n.Baseline(q.ID); !ok {
		t.Errorf("baseline should be set after concurrent writes")
	}
}

// TestPlannerAloneServesIdentically: a Planner built with no Learner — its
// own featurizer, no engine, network, experience or training RNG — serves,
// once a trained system's snapshot and version are published into it, every
// query of a seeded JOB workload the same plan, the same score bits and the
// same version as the full system. The lone Planner's searches run
// concurrently, as a replica's requests do.
func TestPlannerAloneServesIdentically(t *testing.T) {
	rig, _ := bootstrapRig(t)
	n := rig.neo
	p := NewPlanner(&feature.Featurizer{Catalog: rig.db.Catalog, Encoding: feature.Histogram, Stats: rig.st}, n.Config)
	p.Publish(n.Snapshot(), n.NetVersion())

	queries := rig.wl.Queries
	got := make([]*CachedPlan, len(queries))
	gotVersions := make([]uint64, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], gotVersions[i] = p.Cached(q, q.Signature())
		}()
	}
	wg.Wait()
	for i, q := range queries {
		want, wantVersion := n.Cached(q, q.Signature())
		if err := errors.Join(want.Err(), got[i].Err()); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if g, w := got[i].Plan().String(), want.Plan().String(); g != w {
			t.Errorf("%s: the lone Planner serves %s, the full system %s", q.ID, g, w)
		}
		if g, w := got[i].Result().Score, want.Result().Score; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: the lone Planner scores %v, the full system %v", q.ID, g, w)
		}
		if gotVersions[i] != wantVersion || wantVersion == 0 {
			t.Errorf("%s: the lone Planner serves version %d, the full system %d (want a trained, nonzero one)", q.ID, gotVersions[i], wantVersion)
		}
	}
}

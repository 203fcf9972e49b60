package core

import (
	"math"
	"testing"

	"neo/internal/datagen"
	"neo/internal/engine"
	"neo/internal/expert"
	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/stats"
	"neo/internal/storage"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/internal/workload"
)

// testRig bundles everything a Neo instance needs for testing.
type testRig struct {
	db     *storage.Database
	st     *stats.Stats
	eng    *engine.Engine
	feat   *feature.Featurizer
	neo    *Neo
	pg     *expert.Optimizer
	wl     *workload.Workload
	engine string
}

func newRig(t testing.TB, engineName string) *testRig {
	t.Helper()
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.25, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := engine.ProfileByName(engineName)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(prof, db)
	feat := &feature.Featurizer{Catalog: db.Catalog, Encoding: feature.Histogram, Stats: st}
	cfg := DefaultConfig()
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
	n := New(eng, feat, cfg)
	pgEng := engine.New(engine.PostgreSQLProfile(), db)
	pg := expert.NativeOptimizer(pgEng, st, db.Catalog)
	wl, err := workload.JOB(db, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{db: db, st: st, eng: eng, feat: feat, neo: n, pg: pg, wl: wl, engine: engineName}
}

func (r *testRig) expertFunc() func(*query.Query) (*plan.Plan, error) {
	return func(q *query.Query) (*plan.Plan, error) {
		p, _, err := r.pg.Optimize(q)
		return p, err
	}
}

func TestExperienceStore(t *testing.T) {
	e := NewExperience()
	q := query.New("q1", []string{"title"}, nil, nil)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{plan.Leaf("title", plan.TableScan)}}
	e.Add(q, p, 120)
	e.Add(q, p, 80)
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
	if got := e.Entries(); got[0].Latency != 120 || got[1].Latency != 80 || got[1].Query != q {
		t.Errorf("Entries = %+v, want the two adds in order", got)
	}
	cost, ok := e.MinCostContaining(plan.Initial(q), func(en Entry) float64 { return en.Latency })
	if !ok || cost != 80 {
		t.Errorf("MinCostContaining = %f, %v; want 80, true", cost, ok)
	}
	// A plan that is not a subplan of anything stored.
	other := &plan.Plan{Query: q, Roots: []*plan.Node{plan.Leaf("title", plan.IndexScan)}}
	if _, ok := e.MinCostContaining(other, func(en Entry) float64 { return en.Latency }); ok {
		t.Errorf("index-scan plan should not be contained in a table-scan experience")
	}
}

func TestConstructionStates(t *testing.T) {
	q := query.New("q", []string{"a", "b", "c"},
		[]query.JoinPredicate{
			{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "x"},
			{LeftTable: "b", LeftColumn: "y", RightTable: "c", RightColumn: "y"},
		}, nil)
	complete := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin,
			plan.Join2(plan.MergeJoin, plan.Leaf("a", plan.TableScan), plan.Leaf("b", plan.IndexScan)),
			plan.Leaf("c", plan.TableScan)),
	}}
	states := constructionStates(complete)
	// initial + leaves + 2 joins = 4 states.
	if len(states) != 4 {
		t.Fatalf("expected 4 construction states, got %d", len(states))
	}
	if states[0].NumUnspecified() != 3 {
		t.Errorf("first state should be the all-unspecified initial state")
	}
	if len(states[1].Roots) != 3 || states[1].NumUnspecified() != 0 {
		t.Errorf("second state should be the specified-leaves forest: %s", states[1])
	}
	last := states[len(states)-1]
	if !last.IsComplete() {
		t.Fatalf("last state should be complete, got %s", last)
	}
	if last.Signature() != complete.Signature() {
		t.Errorf("last state %s != original plan %s", last, complete)
	}
	// Every state must be a subplan of the complete plan.
	for i, s := range states {
		if !s.IsSubplanOf(complete) {
			t.Errorf("state %d (%s) is not a subplan of the complete plan", i, s)
		}
	}
	// A partial plan passed in is returned as-is.
	partial := plan.Initial(q)
	if got := constructionStates(partial); len(got) != 1 || got[0] != partial {
		t.Errorf("partial plans should round-trip")
	}
}

func TestBootstrapAndOptimize(t *testing.T) {
	rig := newRig(t, "postgres")
	train, _ := rig.wl.Split(0.8, 1)
	if err := rig.neo.Bootstrap(train, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	if rig.neo.Experience.Len() != len(train) {
		t.Errorf("experience should hold one entry per training query")
	}
	for _, q := range train {
		if _, ok := rig.neo.Baseline(q.ID); !ok {
			t.Errorf("baseline missing for %s", q.ID)
		}
	}
	// Optimize must produce a valid executable plan for every training query.
	for _, q := range train[:3] {
		p, res, err := rig.neo.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize(%s): %v", q.ID, err)
		}
		if !p.IsComplete() {
			t.Errorf("plan for %s is not complete", q.ID)
		}
		if res.Evaluations == 0 {
			t.Errorf("search should evaluate states")
		}
		if _, _, err := rig.eng.Execute(p); err != nil {
			t.Errorf("chosen plan does not execute: %v", err)
		}
	}
	if rig.neo.TrainingTime() <= 0 {
		t.Errorf("training time should be recorded")
	}
}

func TestRunEpisodeImprovesOrMatches(t *testing.T) {
	rig := newRig(t, "postgres")
	train, _ := rig.wl.Split(0.8, 1)
	if err := rig.neo.Bootstrap(train, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	var norms []float64
	for ep := 1; ep <= 4; ep++ {
		stats, err := rig.neo.RunEpisode(ep, train)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalLatency <= 0 || stats.NormalizedLatency <= 0 {
			t.Fatalf("episode stats should be positive: %+v", stats)
		}
		if len(stats.QueryLatencies) != len(train) {
			t.Errorf("episode should record one latency per query")
		}
		norms = append(norms, stats.NormalizedLatency)
	}
	// The last episode should not be dramatically worse than the first
	// (learning is noisy but must not diverge).
	if norms[len(norms)-1] > norms[0]*3 {
		t.Errorf("training diverged: first %.2f, last %.2f", norms[0], norms[len(norms)-1])
	}
}

func TestEvaluateHoldout(t *testing.T) {
	rig := newRig(t, "sqlite")
	train, test := rig.wl.Split(0.8, 1)
	if err := rig.neo.Bootstrap(train, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	expBefore := rig.neo.Experience.Len()
	total, perQuery, err := rig.neo.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || len(perQuery) != len(test) {
		t.Errorf("evaluation results malformed: total=%f n=%d", total, len(perQuery))
	}
	if rig.neo.Experience.Len() != expBefore {
		t.Errorf("Evaluate must not add to the experience")
	}
}

func TestCostFunctions(t *testing.T) {
	rig := newRig(t, "postgres")
	q := rig.wl.Queries[0]
	rig.neo.SetBaseline(q.ID, 200)
	entry := Entry{Query: q, Latency: 100}
	if got := rig.neo.cost(entry); got != 100 {
		t.Errorf("workload cost = %f, want 100", got)
	}
	rig.neo.Config.Cost = RelativeCost
	if got := rig.neo.cost(entry); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("relative cost = %f, want 0.5", got)
	}
	// Without a baseline the relative cost falls back to latency.
	other := Entry{Query: rig.wl.Queries[1], Latency: 70}
	if got := rig.neo.cost(other); got != 70 {
		t.Errorf("relative cost without baseline = %f, want 70", got)
	}
	if WorkloadCost.String() != "workload" || RelativeCost.String() != "relative" {
		t.Errorf("cost function names wrong")
	}
	// SetBaseline ignores non-positive values.
	rig.neo.SetBaseline("zzz", 0)
	if _, ok := rig.neo.Baseline("zzz"); ok {
		t.Errorf("zero baseline should be ignored")
	}
}

func TestOptimizeGreedy(t *testing.T) {
	rig := newRig(t, "postgres")
	train, _ := rig.wl.Split(0.8, 1)
	if err := rig.neo.Bootstrap(train[:4], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	q := train[0]
	p, res, err := rig.neo.OptimizeGreedy(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsComplete() || !res.HurryUp {
		t.Errorf("greedy optimization should produce a complete plan via hurry-up mode")
	}
}

func TestPredictNormalizedFinite(t *testing.T) {
	rig := newRig(t, "postgres")
	train, _ := rig.wl.Split(0.8, 1)
	if err := rig.neo.Bootstrap(train[:4], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	q := train[0]
	p, _, err := rig.pg.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	trees := rig.neo.Featurizer.EncodePlan(p)
	if len(trees) != 1 {
		t.Errorf("expected a single encoded tree for a complete plan")
	}
	v := rig.neo.Snapshot().PredictBatchNormalized(
		[][]float64{rig.neo.Featurizer.EncodeQuery(q)}, [][]*treeconv.Tree{trees})[0]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("normalized prediction should be finite, got %f", v)
	}
}

// TestNeoBeatsRandomBootstrapBaseline verifies the core learning property on
// a small scale: after bootstrapping from the expert and a few episodes, the
// plans Neo chooses are competitive with (not far worse than) the expert's
// own plans executed on the same engine.
func TestNeoCompetitiveWithExpertAfterTraining(t *testing.T) {
	rig := newRig(t, "postgres")
	train, _ := rig.wl.Split(0.8, 1)
	if err := rig.neo.Bootstrap(train, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	for ep := 1; ep <= 5; ep++ {
		if _, err := rig.neo.RunEpisode(ep, train); err != nil {
			t.Fatal(err)
		}
	}
	// Compare Neo's chosen plans against the expert baseline on the training
	// queries (the paper's normalized-latency metric).
	var neoTotal, baseTotal float64
	for _, q := range train {
		p, _, err := rig.neo.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rig.eng.Executor().Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		neoTotal += rig.eng.CostResult(p.Roots[0], res.Nodes)
		base, _ := rig.neo.Baseline(q.ID)
		baseTotal += base
	}
	ratio := neoTotal / baseTotal
	if ratio > 2.0 {
		t.Errorf("after bootstrap + 5 episodes Neo should be within 2x of the expert, got %.2fx", ratio)
	}
}

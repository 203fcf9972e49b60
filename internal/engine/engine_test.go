package engine

import (
	"math"
	"testing"

	"neo/internal/datagen"
	"neo/internal/executor"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/storage"
)

func imdb(t testing.TB) *storage.Database {
	t.Helper()
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func loveQuery() *query.Query {
	return query.New("love",
		[]string{"title", "movie_keyword", "keyword"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
		},
		[]query.Predicate{
			{Table: "keyword", Column: "keyword", Op: query.Eq, Value: storage.StringValue("love")},
		})
}

func goodPlan(q *query.Query) *plan.Plan {
	// Filtered keyword first, then movie_keyword, then title: small
	// intermediates throughout.
	return &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin,
			plan.Join2(plan.HashJoin, plan.Leaf("keyword", plan.TableScan), plan.Leaf("movie_keyword", plan.TableScan)),
			plan.Leaf("title", plan.TableScan)),
	}}
}

func badPlan(q *query.Query) *plan.Plan {
	// title ⋈ movie_keyword first (large intermediate), keyword last, with
	// non-indexed loop joins: should be much slower on every engine.
	return &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.LoopJoin,
			plan.Join2(plan.LoopJoin, plan.Leaf("title", plan.TableScan), plan.Leaf("movie_keyword", plan.TableScan)),
			plan.Leaf("keyword", plan.TableScan)),
	}}
}

func TestProfilesAndLookup(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("expected 4 profiles, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.CostScale <= 0 || p.Parallelism <= 0 || p.SeqRowCost <= 0 {
			t.Errorf("profile %s has non-positive coefficients: %+v", p.Name, p)
		}
	}
	for _, want := range []string{"postgres", "sqlite", "engine-m", "engine-o"} {
		if !names[want] {
			t.Errorf("missing profile %q", want)
		}
		if _, err := ProfileByName(want); err != nil {
			t.Errorf("ProfileByName(%q): %v", want, err)
		}
	}
	if _, err := ProfileByName("db2"); err == nil {
		t.Errorf("expected error for unknown profile")
	}
}

func TestExecuteProducesPositiveLatency(t *testing.T) {
	db := imdb(t)
	q := loveQuery()
	for _, prof := range Profiles() {
		e := New(prof, db)
		lat, res, err := e.Execute(goodPlan(q))
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if lat <= 0 {
			t.Errorf("%s: latency should be positive, got %f", prof.Name, lat)
		}
		if res.OutputRows <= 0 {
			t.Errorf("%s: expected non-empty result", prof.Name)
		}
		if e.SimulatedTimeMS() <= 0 {
			t.Errorf("%s: SimulatedTimeMS should accumulate", prof.Name)
		}
	}
}

func TestBadPlanIsSlowerOnEveryEngine(t *testing.T) {
	db := imdb(t)
	q := loveQuery()
	for _, prof := range Profiles() {
		e := New(prof, db)
		goodLat, _, err := e.Execute(goodPlan(q))
		if err != nil {
			t.Fatal(err)
		}
		badLat, _, err := e.Execute(badPlan(q))
		if err != nil {
			t.Fatal(err)
		}
		if badLat <= goodLat {
			t.Errorf("%s: bad plan (%.2fms) should be slower than good plan (%.2fms)", prof.Name, badLat, goodLat)
		}
		// The blow-up should be substantial (order of magnitude-ish), which
		// is what gives Neo a learnable signal.
		if badLat < 3*goodLat {
			t.Errorf("%s: expected a large gap, got good=%.2f bad=%.2f", prof.Name, goodLat, badLat)
		}
	}
}

func TestCostResultDeterministicAndNoiseBounded(t *testing.T) {
	db := imdb(t)
	q := loveQuery()
	e := New(PostgreSQLProfile(), db)
	p := goodPlan(q)
	res, err := e.Executor().Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	c1 := e.CostResult(p.Roots[0], res.Nodes)
	c2 := e.CostResult(p.Roots[0], res.Nodes)
	if c1 != c2 {
		t.Errorf("CostResult should be deterministic: %f vs %f", c1, c2)
	}
	// Execute adds bounded multiplicative noise around the deterministic cost.
	for i := 0; i < 20; i++ {
		lat, _, err := e.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lat-c1)/c1 > e.Profile.NoiseFraction+1e-9 {
			t.Errorf("latency %f deviates more than noise fraction from %f", lat, c1)
		}
	}
}

func TestIndexNestedLoopBeatsNaiveLoop(t *testing.T) {
	db := imdb(t)
	q := query.New("mkt",
		[]string{"movie_keyword", "title"},
		[]query.JoinPredicate{{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"}},
		nil)
	inl := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.LoopJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.IndexScan)),
	}}
	naive := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.LoopJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.TableScan)),
	}}
	e := New(SQLiteProfile(), db)
	inlLat, _, err := e.Execute(inl)
	if err != nil {
		t.Fatal(err)
	}
	naiveLat, _, err := e.Execute(naive)
	if err != nil {
		t.Fatal(err)
	}
	if inlLat >= naiveLat {
		t.Errorf("index nested loop (%.2f) should beat naive nested loop (%.2f)", inlLat, naiveLat)
	}
}

// TestIndexNestedLoopCostIgnoresInnerCounts pins the reason the executor may
// run an index-nested-loop join without scanning its inner leaf: no profile
// reads that leaf's OutputRows/Selectivity or the join's RightRows, so the
// counts such a join reports there (index fetches, not a scan) cannot move a
// simulated latency, or anything trained from one.
func TestIndexNestedLoopCostIgnoresInnerCounts(t *testing.T) {
	db := imdb(t)
	q := loveQuery()
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.LoopJoin,
			plan.Join2(plan.LoopJoin, plan.Leaf("keyword", plan.TableScan), plan.Leaf("movie_keyword", plan.IndexScan)),
			plan.Leaf("title", plan.IndexScan)),
	}}
	res, err := executor.New(db).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	var joins []*plan.Node
	p.Roots[0].Walk(func(n *plan.Node) {
		if !n.IsLeaf() {
			joins = append(joins, n)
		}
	})
	for _, prof := range append(Profiles(), DiskProfile()) {
		want := prof.CostResult(p.Roots[0], res.Nodes)
		for _, j := range joins {
			if !res.Nodes[j].InnerIndexOnJoinKey {
				t.Fatalf("%s is not an index-nested-loop join; the test pins nothing", j)
			}
			join, inner := *res.Nodes[j], *res.Nodes[j.Right]
			res.Nodes[j].RightRows *= 7
			res.Nodes[j.Right].OutputRows = inner.OutputRows*13 + 5
			res.Nodes[j.Right].Selectivity = 1 - inner.Selectivity
			if got := prof.CostResult(p.Roots[0], res.Nodes); got != want {
				t.Errorf("%s: cost moved %v -> %v when the inner counts of %s changed", prof.Name, want, got, j)
			}
			*res.Nodes[j], *res.Nodes[j.Right] = join, inner
		}
	}
}

func TestMergeJoinBenefitsFromSortedInput(t *testing.T) {
	db := imdb(t)
	q := query.New("mkt",
		[]string{"movie_keyword", "title"},
		[]query.JoinPredicate{{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"}},
		nil)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.MergeJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.TableScan)),
	}}
	e := New(EngineOProfile(), db)
	res, err := e.Executor().Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	withSort := e.CostResult(p.Roots[0], res.Nodes)
	// Pretend both inputs were sorted: cost must strictly drop.
	for _, ns := range res.Nodes {
		ns.LeftSorted = true
		ns.RightSorted = true
	}
	noSort := e.CostResult(p.Roots[0], res.Nodes)
	if noSort >= withSort {
		t.Errorf("pre-sorted merge join (%.2f) should be cheaper than sorting (%.2f)", noSort, withSort)
	}
}

func TestEnginesRankPlansDifferently(t *testing.T) {
	// SQLite (weak hash join, strong index loops) and EngineM (strong hash
	// join) should price a hash-heavy plan differently relative to an
	// index-loop plan, which is why Neo learns per-engine policies.
	db := imdb(t)
	q := query.New("mkt",
		[]string{"movie_keyword", "title"},
		[]query.JoinPredicate{{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"}},
		nil)
	hash := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.TableScan)),
	}}
	inl := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.LoopJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.IndexScan)),
	}}
	ratio := func(prof Profile) float64 {
		e := New(prof, db)
		hres, _ := e.Executor().Execute(hash)
		ires, _ := e.Executor().Execute(inl)
		return e.CostResult(hash.Roots[0], hres.Nodes) / e.CostResult(inl.Roots[0], ires.Nodes)
	}
	sqliteRatio := ratio(SQLiteProfile())
	mRatio := ratio(EngineMProfile())
	if sqliteRatio <= mRatio {
		t.Errorf("hash/loop cost ratio should be higher on sqlite (%.2f) than engine-m (%.2f)", sqliteRatio, mRatio)
	}
}

func TestCostResultHandlesMissingStats(t *testing.T) {
	e := New(PostgreSQLProfile(), imdb(t))
	root := plan.Leaf("title", plan.TableScan)
	if got := e.CostResult(root, map[*plan.Node]*executor.NodeStats{}); got < 0 {
		t.Errorf("cost should not be negative")
	}
}

// TestSimulateCommitMatchesExecute pins the contract the concurrent episode
// pipeline relies on: Simulate+Commit must be exactly Execute, including the
// noise stream and the execution accounting, so committing fanned-out
// simulations in order reproduces serial execution bit for bit.
func TestSimulateCommitMatchesExecute(t *testing.T) {
	db := imdb(t)
	q := loveQuery()
	p := goodPlan(q)
	direct := New(PostgreSQLProfile(), db)
	split := New(PostgreSQLProfile(), db)
	for i := 0; i < 5; i++ {
		dLat, _, err := direct.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := split.Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		if sLat := split.Commit(base); sLat != dLat {
			t.Errorf("iteration %d: Simulate+Commit = %v, Execute = %v", i, sLat, dLat)
		}
	}
	if direct.SimulatedTimeMS() != split.SimulatedTimeMS() {
		t.Errorf("simulated time differs: %v vs %v", direct.SimulatedTimeMS(), split.SimulatedTimeMS())
	}
	// Simulate alone must not touch the accounting or the noise stream.
	before := direct.SimulatedTimeMS()
	if _, _, err := direct.Simulate(p); err != nil {
		t.Fatal(err)
	}
	if direct.SimulatedTimeMS() != before {
		t.Errorf("Simulate must not count as an execution")
	}
}

// fixedBackend is a measured test double: Run returns a canned latency.
type fixedBackend struct{ lat float64 }

func (f *fixedBackend) Name() string   { return "fixed" }
func (f *fixedBackend) Measured() bool { return true }
func (f *fixedBackend) Run(p *plan.Plan) (float64, *executor.Result, error) {
	return f.lat, &executor.Result{}, nil
}

func TestCommitBypassesNoiseForMeasuredBackends(t *testing.T) {
	// A measured backend's latencies are real: Commit must return them
	// unchanged and must not consume the engine's noise stream, so a sim
	// engine created with the same profile keeps its exact noise sequence
	// regardless of interleaved measured commits.
	prof := PostgreSQLProfile()
	if prof.NoiseFraction == 0 {
		t.Fatal("test needs a noisy profile")
	}
	measured := NewWithBackend(prof, &fixedBackend{lat: 42.5})
	for i := 0; i < 8; i++ {
		base, _, err := measured.Simulate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if lat := measured.Commit(base); lat != 42.5 {
			t.Fatalf("iteration %d: Commit perturbed a measured latency: %v", i, lat)
		}
	}
	if got := measured.SimulatedTimeMS(); got != 8*42.5 {
		t.Errorf("measured commits must still be accounted: %v ms, want %v", got, 8*42.5)
	}

	// Two sim engines, one interleaving measured-engine traffic: identical
	// noise draws (the measured engine has its own rng, and measured commits
	// would not draw from it anyway).
	db := imdb(t)
	q := loveQuery()
	p := goodPlan(q)
	ref := New(prof, db)
	mixed := New(prof, db)
	for i := 0; i < 5; i++ {
		rLat, _, err := ref.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		measured.Commit(42.5)
		mLat, _, err := mixed.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if rLat != mLat {
			t.Errorf("iteration %d: noise streams diverged: %v vs %v", i, rLat, mLat)
		}
	}

	// DiskProfile is the measured backend's profile: zero noise by
	// construction, resolvable by name, absent from the sim profile list.
	dp, err := ProfileByName("disk")
	if err != nil {
		t.Fatal(err)
	}
	if dp.NoiseFraction != 0 {
		t.Errorf("disk profile must be noise-free: %v", dp.NoiseFraction)
	}
	for _, p := range Profiles() {
		if p.Name == "disk" {
			t.Errorf("Profiles() must list only the simulated engines")
		}
	}
}

package expert

import (
	"testing"

	"neo/internal/datagen"
	"neo/internal/engine"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/stats"
	"neo/internal/storage"
)

func setup(t testing.TB) (*storage.Database, *stats.Stats, map[string]*engine.Engine) {
	t.Helper()
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	st, err := stats.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	engs := map[string]*engine.Engine{}
	for _, prof := range engine.Profiles() {
		engs[prof.Name] = engine.New(prof, db)
	}
	return db, st, engs
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

func fiveWayQuery() *query.Query {
	return query.New("five",
		[]string{"title", "movie_keyword", "keyword", "movie_info", "info_type"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
			{LeftTable: "movie_info", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_info", LeftColumn: "info_type_id", RightTable: "info_type", RightColumn: "id"},
		},
		[]query.Predicate{
			{Table: "keyword", Column: "keyword", Op: query.Eq, Value: storage.StringValue("love")},
			{Table: "movie_info", Column: "info", Op: query.Eq, Value: storage.StringValue("romance")},
			{Table: "info_type", Column: "id", Op: query.Eq, Value: storage.IntValue(3)},
		})
}

func TestOptimizeProducesValidCompletePlan(t *testing.T) {
	db, st, engs := setup(t)
	cat := db.Catalog
	for name, eng := range engs {
		opt := NativeOptimizer(eng, st, cat)
		p, cost, err := opt.Optimize(loveQuery())
		if err != nil {
			t.Fatalf("%s: Optimize: %v", name, err)
		}
		if !p.IsComplete() {
			t.Errorf("%s: plan is not complete: %s", name, p)
		}
		if cost <= 0 {
			t.Errorf("%s: estimated cost should be positive", name)
		}
		if got := len(p.Roots[0].Tables()); got != 3 {
			t.Errorf("%s: plan covers %d tables, want 3", name, got)
		}
		// The plan must actually execute.
		if _, _, err := eng.Execute(p); err != nil {
			t.Errorf("%s: plan does not execute: %v", name, err)
		}
	}
}

func TestOptimizerBeatsRandomPlans(t *testing.T) {
	db, st, engs := setup(t)
	eng := engs["postgres"]
	opt := NativeOptimizer(eng, st, db.Catalog)
	q := fiveWayQuery()
	p, _, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	optLat, _, err := eng.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewRandomPlanner(db.Catalog, 3)
	worse := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		lat, _, err := eng.Execute(rp.Plan(q))
		if err != nil {
			t.Fatal(err)
		}
		if lat >= optLat {
			worse++
		}
	}
	if worse < trials*6/10 {
		t.Errorf("optimized plan (%.1fms) should beat most random plans, but only %d/%d were worse", optLat, worse, trials)
	}
}

func TestSQLiteNativeAvoidsHashJoins(t *testing.T) {
	db, st, engs := setup(t)
	opt := NativeOptimizer(engs["sqlite"], st, db.Catalog)
	p, _, err := opt.Optimize(loveQuery())
	if err != nil {
		t.Fatal(err)
	}
	p.Roots[0].Walk(func(n *plan.Node) {
		if !n.IsLeaf() && n.Join == plan.HashJoin {
			t.Errorf("sqlite native optimizer produced a hash join: %s", p)
		}
	})
}

func TestCommercialOptimizerAtLeastAsGoodAsPostgres(t *testing.T) {
	db, st, engs := setup(t)
	q := fiveWayQuery()
	// Both plans are executed on engine-m, mirroring the paper's setup of
	// running PostgreSQL's plan on the commercial engine.
	target := engs["engine-m"]
	pgOpt := NativeOptimizer(engs["postgres"], st, db.Catalog)
	mOpt := NativeOptimizer(target, st, db.Catalog)
	pgPlan, _, err := pgOpt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	mPlan, _, err := mOpt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	pgRes, err := target.Executor().Execute(pgPlan)
	if err != nil {
		t.Fatal(err)
	}
	mRes, err := target.Executor().Execute(mPlan)
	if err != nil {
		t.Fatal(err)
	}
	pgCost := target.CostResult(pgPlan.Roots[0], pgRes.Nodes)
	mCost := target.CostResult(mPlan.Roots[0], mRes.Nodes)
	if mCost > pgCost*1.10 {
		t.Errorf("commercial native plan (%.1f) should not be much worse than postgres plan (%.1f) on its own engine", mCost, pgCost)
	}
}

func TestHistogramEstimatorBasics(t *testing.T) {
	db, st, _ := setup(t)
	h := &HistogramEstimator{Stats: st}
	rows := h.ScanRows("title", nil)
	if rows != float64(db.Table("title").NumRows()) {
		t.Errorf("ScanRows with no predicates = %f", rows)
	}
	if h.BaseRows("title") != rows {
		t.Errorf("BaseRows should equal unfiltered ScanRows")
	}
	j := query.JoinPredicate{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"}
	join := h.JoinRows(1000, 500, []query.JoinPredicate{j})
	if join <= 0 {
		t.Errorf("JoinRows should be positive")
	}
	cross := h.JoinRows(1000, 500, nil)
	if cross != 500000 {
		t.Errorf("JoinRows without predicates should be the cross product, got %f", cross)
	}
	multi := h.JoinRows(1000, 500, []query.JoinPredicate{j, j})
	if multi > join {
		t.Errorf("extra join predicates should not increase the estimate (%f > %f)", multi, join)
	}
}

func TestCorrectedEstimatorBlends(t *testing.T) {
	db, st, engs := setup(t)
	_ = db
	h := &HistogramEstimator{Stats: st}
	preds := []query.Predicate{
		{Table: "movie_info", Column: "info", Op: query.Eq, Value: storage.StringValue("romance")},
		{Table: "movie_info", Column: "info_type_id", Op: query.Eq, Value: storage.IntValue(3)},
	}
	histRows := h.ScanRows("movie_info", preds)
	exactSel, err := engs["postgres"].Executor().Selectivity("movie_info", preds)
	if err != nil {
		t.Fatal(err)
	}
	exactRows := exactSel * h.BaseRows("movie_info")
	full := NewCorrectedEstimator(h, engs["postgres"].Executor(), 1.0)
	got := full.ScanRows("movie_info", preds)
	if diff(got, exactRows) > 0.05*exactRows+1 {
		t.Errorf("quality-1 estimator = %f, want ~exact %f", got, exactRows)
	}
	zero := NewCorrectedEstimator(h, engs["postgres"].Executor(), 0.0)
	if diff(zero.ScanRows("movie_info", preds), histRows) > 1e-6 {
		t.Errorf("quality-0 estimator should equal the histogram estimate")
	}
	// The estimate is a pure function of its inputs.
	if full.ScanRows("movie_info", preds) != got {
		t.Errorf("a repeated estimate should be identical")
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestRandomPlannerProducesValidPlans(t *testing.T) {
	db, _, engs := setup(t)
	rp := NewRandomPlanner(db.Catalog, 5)
	q := fiveWayQuery()
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		p := rp.Plan(q)
		if !p.IsComplete() {
			t.Fatalf("random plan %d is not complete: %s", i, p)
		}
		if _, _, err := engs["postgres"].Execute(p); err != nil {
			t.Fatalf("random plan does not execute: %v", err)
		}
		seen[p.Signature()] = true
	}
	if len(seen) < 3 {
		t.Errorf("random planner should produce diverse plans, saw %d distinct", len(seen))
	}
}

func TestOptimizeRejectsInvalidQuery(t *testing.T) {
	db, st, engs := setup(t)
	opt := NativeOptimizer(engs["postgres"], st, db.Catalog)
	bad := query.New("bad", []string{"not_a_table"}, nil, nil)
	if _, _, err := opt.Optimize(bad); err == nil {
		t.Errorf("expected validation error")
	}
}

func TestOptimizeSingleTable(t *testing.T) {
	db, st, engs := setup(t)
	opt := NativeOptimizer(engs["postgres"], st, db.Catalog)
	q := query.New("single", []string{"title"}, nil, []query.Predicate{
		{Table: "title", Column: "production_year", Op: query.Eq, Value: storage.IntValue(2001)},
	})
	p, cost, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsComplete() || len(p.Roots[0].Tables()) != 1 {
		t.Fatalf("bad single-table plan: %s", p)
	}
	// production_year is indexed and the predicate is an equality: the
	// optimizer should pick an index scan.
	if p.Roots[0].Scan != plan.IndexScan {
		t.Errorf("expected index scan for selective indexed predicate, got %s", p.Roots[0])
	}
	if cost <= 0 {
		t.Errorf("cost should be positive")
	}
}

// TestOptimizeRejectsDisconnectedQuery: Validate rejects a disconnected join
// graph before the dynamic program runs, so the optimizer never plans a
// cross product.
func TestOptimizeRejectsDisconnectedQuery(t *testing.T) {
	db, st, engs := setup(t)
	opt := NewOptimizer(engs["postgres"], &HistogramEstimator{Stats: st}, db.Catalog, Config{})
	q := &query.Query{ID: "cross", Relations: []string{"info_type", "keyword"}}
	if p, _, err := opt.Optimize(q); err == nil {
		t.Errorf("disconnected query planned as %s, want a validation error", p)
	}
}

func TestNativeConfigShapes(t *testing.T) {
	cfg, q := NativeConfig("postgres")
	if cfg.Bushy || q != 0 {
		t.Errorf("postgres should be left-deep with histogram stats")
	}
	cfg, q = NativeConfig("engine-m")
	if !cfg.Bushy || q <= 0 {
		t.Errorf("engine-m should be bushy with corrected stats")
	}
	cfg, _ = NativeConfig("sqlite")
	for _, op := range cfg.JoinOps {
		if op == plan.HashJoin {
			t.Errorf("sqlite config should not include hash joins")
		}
	}
	cfg, _ = NativeConfig("unknown-engine")
	if cfg.Bushy {
		t.Errorf("unknown engines default to the postgres configuration")
	}
}

func BenchmarkOptimizeFiveWay(b *testing.B) {
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.3, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	st, err := stats.Build(db)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(engine.PostgreSQLProfile(), db)
	opt := NativeOptimizer(eng, st, db.Catalog)
	q := fiveWayQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

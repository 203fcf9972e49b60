package executor

import (
	"math"
	"testing"

	"neo/internal/datagen"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/storage"
)

func imdb(t testing.TB) *storage.Database {
	t.Helper()
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.3, Seed: 9})
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

func TestExecuteRejectsPartialPlan(t *testing.T) {
	e := New(imdb(t))
	p := plan.Initial(loveQuery())
	if _, err := e.Execute(p); err == nil {
		t.Fatalf("expected error for partial plan")
	}
}

func TestExecuteSingleTableScan(t *testing.T) {
	db := imdb(t)
	e := New(db)
	q := query.New("single", []string{"title"}, nil, []query.Predicate{
		{Table: "title", Column: "kind", Op: query.Eq, Value: storage.StringValue("tv")},
	})
	p := &plan.Plan{Query: q, Roots: []*plan.Node{plan.Leaf("title", plan.TableScan)}}
	res, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against a manual count.
	want := 0
	title := db.Table("title")
	for i := 0; i < title.NumRows(); i++ {
		v, _ := title.Value("kind", i)
		if v.Str == "tv" {
			want++
		}
	}
	if res.OutputRows != float64(want) {
		t.Errorf("OutputRows = %f, want %d", res.OutputRows, want)
	}
	ns := res.Nodes[p.Roots[0]]
	if ns == nil {
		t.Fatalf("missing node stats for scan")
	}
	if ns.BaseRows != float64(title.NumRows()) {
		t.Errorf("BaseRows = %f, want %d", ns.BaseRows, title.NumRows())
	}
	if math.Abs(ns.Selectivity-float64(want)/float64(title.NumRows())) > 1e-9 {
		t.Errorf("Selectivity = %f", ns.Selectivity)
	}
}

func TestJoinOrderDoesNotChangeResultCardinality(t *testing.T) {
	db := imdb(t)
	e := New(db)
	q := loveQuery()

	mkT := plan.Leaf("movie_keyword", plan.TableScan)
	tT := plan.Leaf("title", plan.TableScan)
	kT := plan.Leaf("keyword", plan.TableScan)
	planA := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin, plan.Join2(plan.HashJoin, mkT, tT), kT),
	}}

	mk2 := plan.Leaf("movie_keyword", plan.TableScan)
	t2 := plan.Leaf("title", plan.TableScan)
	k2 := plan.Leaf("keyword", plan.TableScan)
	planB := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.MergeJoin, plan.Join2(plan.LoopJoin, k2, mk2), t2),
	}}

	resA, err := e.Execute(planA)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := e.Execute(planB)
	if err != nil {
		t.Fatal(err)
	}
	if resA.OutputRows != resB.OutputRows {
		t.Errorf("different join orders produced different cardinalities: %f vs %f", resA.OutputRows, resB.OutputRows)
	}
	if resA.OutputRows <= 0 {
		t.Errorf("expected non-empty result for the love query")
	}
}

func TestCountMatchesExecute(t *testing.T) {
	e := New(imdb(t))
	q := loveQuery()
	count, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	mk := plan.Leaf("movie_keyword", plan.TableScan)
	ti := plan.Leaf("title", plan.TableScan)
	kw := plan.Leaf("keyword", plan.TableScan)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin, plan.Join2(plan.HashJoin, mk, ti), kw),
	}}
	res, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if count != res.OutputRows {
		t.Errorf("Count = %f, Execute = %f", count, res.OutputRows)
	}
}

func TestCrossProductFlag(t *testing.T) {
	e := New(imdb(t))
	q := query.New("cross", []string{"keyword", "info_type"}, nil, nil)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin, plan.Leaf("keyword", plan.TableScan), plan.Leaf("info_type", plan.TableScan)),
	}}
	res, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	ns := res.Nodes[p.Roots[0]]
	if !ns.CrossProduct {
		t.Errorf("expected cross product flag")
	}
	want := float64(len(datagen.Keywords) * 6)
	if math.Abs(res.OutputRows-want) > want*0.05 {
		t.Errorf("cross product cardinality = %f, want ~%f", res.OutputRows, want)
	}
}

func TestSamplingKeepsCardinalityApproximatelyCorrect(t *testing.T) {
	db := imdb(t)
	e := New(db)
	e.MaxRows = 500 // force aggressive sampling
	q := query.New("big",
		[]string{"title", "movie_keyword", "cast_info"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "cast_info", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
		}, nil)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin,
			plan.Join2(plan.HashJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.TableScan)),
			plan.Leaf("cast_info", plan.TableScan)),
	}}
	sampled, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	exact := New(db)
	exactRes, err := exact.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if exactRes.OutputRows == 0 {
		t.Fatalf("expected non-empty exact result")
	}
	ratio := sampled.OutputRows / exactRes.OutputRows
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("sampled cardinality %f too far from exact %f (ratio %f)", sampled.OutputRows, exactRes.OutputRows, ratio)
	}
}

func TestNodeStatsOrderingAndIndexFlags(t *testing.T) {
	db := imdb(t)
	e := New(db)
	q := query.New("mkt",
		[]string{"movie_keyword", "title"},
		[]query.JoinPredicate{{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"}},
		nil)
	// Merge join of two base tables: title is sorted on its primary key id,
	// so the right side is sorted; movie_keyword sorted on its own pk, not
	// on movie_id, so the left side is not.
	join := plan.Join2(plan.MergeJoin, plan.Leaf("movie_keyword", plan.TableScan), plan.Leaf("title", plan.IndexScan))
	p := &plan.Plan{Query: q, Roots: []*plan.Node{join}}
	res, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	ns := res.Nodes[join]
	if ns.LeftSorted {
		t.Errorf("movie_keyword input should not count as sorted on movie_id")
	}
	if !ns.RightSorted {
		t.Errorf("title input should count as sorted on id (primary key)")
	}
	if !ns.InnerIndexOnJoinKey {
		t.Errorf("index scan on title.id should enable index-nested-loop flag")
	}
	if ns.LeftRows <= 0 || ns.RightRows <= 0 || ns.OutputRows <= 0 {
		t.Errorf("join node stats should be positive: %+v", ns)
	}
	// Every row of movie_keyword matches exactly one title.
	if math.Abs(ns.OutputRows-ns.LeftRows) > ns.LeftRows*0.01 {
		t.Errorf("FK join output %f should equal left input %f", ns.OutputRows, ns.LeftRows)
	}
}

func TestIndexOnPredicateFlag(t *testing.T) {
	db := imdb(t)
	e := New(db)
	q := query.New("year", []string{"title"}, nil, []query.Predicate{
		{Table: "title", Column: "production_year", Op: query.Eq, Value: storage.IntValue(2000)},
	})
	leaf := plan.Leaf("title", plan.IndexScan)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{leaf}}
	res, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nodes[leaf].IndexOnPredicate {
		t.Errorf("production_year is indexed; expected IndexOnPredicate")
	}
}

func TestTrueJoinCardinalities(t *testing.T) {
	e := New(imdb(t))
	q := loveQuery()
	cards, err := e.TrueJoinCardinalities(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cards) < 3 {
		t.Fatalf("expected cardinalities for several subsets, got %v", cards)
	}
	full, ok := cards[SubsetKey([]string{"keyword", "movie_keyword", "title"})]
	if !ok {
		t.Fatalf("missing full-join cardinality: %v", cards)
	}
	count, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if full != count {
		t.Errorf("full-join cardinality %f != Count %f", full, count)
	}
}

func TestSelectivityExact(t *testing.T) {
	db := imdb(t)
	e := New(db)
	sel, err := e.Selectivity("title", []query.Predicate{
		{Table: "title", Column: "kind", Op: query.Eq, Value: storage.StringValue("movie")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel <= 0 || sel >= 1 {
		t.Errorf("selectivity of kind=movie should be in (0,1), got %f", sel)
	}
	if _, err := e.Selectivity("nope", nil); err == nil {
		t.Errorf("expected error for unknown table")
	}
	if _, err := e.Selectivity("title", []query.Predicate{{Table: "title", Column: "none", Op: query.Eq, Value: storage.IntValue(0)}}); err == nil {
		t.Errorf("expected error for unknown column")
	}
}

func TestTable2CorrelationGroundTruth(t *testing.T) {
	// The Table 2 property: |love ∧ romance| > |love ∧ horror| in the data.
	e := New(imdb(t))
	build := func(keyword, genre string) *query.Query {
		return query.New(keyword+"-"+genre,
			[]string{"title", "movie_keyword", "keyword", "movie_info", "info_type"},
			[]query.JoinPredicate{
				{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
				{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
				{LeftTable: "movie_info", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
				{LeftTable: "movie_info", LeftColumn: "info_type_id", RightTable: "info_type", RightColumn: "id"},
			},
			[]query.Predicate{
				{Table: "info_type", Column: "id", Op: query.Eq, Value: storage.IntValue(3)},
				{Table: "keyword", Column: "keyword", Op: query.Like, Value: storage.StringValue(keyword)},
				{Table: "movie_info", Column: "info", Op: query.Like, Value: storage.StringValue(genre)},
			})
	}
	loveRomance, err := e.Count(build("love", "romance"))
	if err != nil {
		t.Fatal(err)
	}
	loveHorror, err := e.Count(build("love", "horror"))
	if err != nil {
		t.Fatal(err)
	}
	if loveRomance <= loveHorror {
		t.Errorf("expected card(love,romance)=%f > card(love,horror)=%f", loveRomance, loveHorror)
	}
}

func BenchmarkExecuteThreeWayJoin(b *testing.B) {
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.3, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	e := New(db)
	q := loveQuery()
	mk := plan.Leaf("movie_keyword", plan.TableScan)
	ti := plan.Leaf("title", plan.TableScan)
	kw := plan.Leaf("keyword", plan.TableScan)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin, plan.Join2(plan.HashJoin, mk, ti), kw),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}

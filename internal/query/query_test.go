package query

import (
	"strings"
	"testing"

	"neo/internal/datagen"
	"neo/internal/storage"
)

func sampleQuery() *Query {
	return New("q1",
		[]string{"title", "movie_keyword", "keyword"},
		[]JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
		},
		[]Predicate{
			{Table: "keyword", Column: "keyword", Op: Eq, Value: storage.StringValue("love")},
			{Table: "title", Column: "production_year", Op: Gt, Value: storage.IntValue(2000)},
		})
}

func TestNewCanonicalisesRelations(t *testing.T) {
	q := New("x", []string{"zeta", "alpha", "mid"}, nil, nil)
	want := []string{"alpha", "mid", "zeta"}
	for i, r := range q.Relations {
		if r != want[i] {
			t.Fatalf("Relations = %v, want %v", q.Relations, want)
		}
	}
}

func TestPredicateMatches(t *testing.T) {
	cases := []struct {
		p    Predicate
		v    storage.Value
		want bool
	}{
		{Predicate{Op: Eq, Value: storage.IntValue(5)}, storage.IntValue(5), true},
		{Predicate{Op: Eq, Value: storage.IntValue(5)}, storage.IntValue(6), false},
		{Predicate{Op: Ne, Value: storage.IntValue(5)}, storage.IntValue(6), true},
		{Predicate{Op: Lt, Value: storage.IntValue(5)}, storage.IntValue(4), true},
		{Predicate{Op: Lt, Value: storage.IntValue(5)}, storage.IntValue(5), false},
		{Predicate{Op: Le, Value: storage.IntValue(5)}, storage.IntValue(5), true},
		{Predicate{Op: Gt, Value: storage.IntValue(5)}, storage.IntValue(6), true},
		{Predicate{Op: Ge, Value: storage.IntValue(5)}, storage.IntValue(5), true},
		{Predicate{Op: Ge, Value: storage.IntValue(5)}, storage.IntValue(4), false},
		{Predicate{Op: Like, Value: storage.StringValue("love")}, storage.StringValue("my-love-story"), true},
		{Predicate{Op: Like, Value: storage.StringValue("LOVE")}, storage.StringValue("my-love-story"), true},
		{Predicate{Op: Like, Value: storage.StringValue("war")}, storage.StringValue("peace"), false},
		{Predicate{Op: Eq, Value: storage.StringValue("a")}, storage.StringValue("a"), true},
		{Predicate{Op: CmpOp(99), Value: storage.IntValue(1)}, storage.IntValue(1), false},
	}
	for i, tc := range cases {
		if got := tc.p.Matches(tc.v); got != tc.want {
			t.Errorf("case %d: Matches(%v %s %v) = %v, want %v", i, tc.v, tc.p.Op, tc.p.Value, got, tc.want)
		}
	}
}

func TestCmpOpString(t *testing.T) {
	ops := map[CmpOp]string{Eq: "=", Ne: "<>", Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Like: "LIKE"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if !strings.Contains(CmpOp(42).String(), "42") {
		t.Errorf("unknown CmpOp should include its number")
	}
}

func TestJoinPredicateHelpers(t *testing.T) {
	j := JoinPredicate{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "y"}
	if !j.Touches("a") || !j.Touches("b") || j.Touches("c") {
		t.Errorf("Touches misbehaves")
	}
	if j.String() != "a.x = b.y" {
		t.Errorf("String = %q", j.String())
	}
}

func TestQueryAccessors(t *testing.T) {
	q := sampleQuery()
	if q.NumJoins() != 2 {
		t.Errorf("NumJoins = %d, want 2", q.NumJoins())
	}
	preds := q.PredicatesOn("keyword")
	if len(preds) != 1 || preds[0].Column != "keyword" {
		t.Errorf("PredicatesOn(keyword) = %v", preds)
	}
	if len(q.PredicatesOn("movie_keyword")) != 0 {
		t.Errorf("PredicatesOn(movie_keyword) should be empty")
	}
}

func TestJoinsBetweenAndConnected(t *testing.T) {
	q := sampleQuery()
	left := map[string]bool{"title": true}
	right := map[string]bool{"movie_keyword": true}
	js := q.JoinsBetween(left, right)
	if len(js) != 1 {
		t.Fatalf("JoinsBetween = %v, want 1 join", js)
	}
	if !q.Connected(left, right) {
		t.Errorf("title and movie_keyword should be connected")
	}
	if q.Connected(map[string]bool{"title": true}, map[string]bool{"keyword": true}) {
		t.Errorf("title and keyword are not directly connected")
	}
}

func TestJoinGraph(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := sampleQuery()
	g := q.JoinGraph(cat)
	ti := cat.TableIndex("title")
	mki := cat.TableIndex("movie_keyword")
	ki := cat.TableIndex("keyword")
	ci := cat.TableIndex("cast_info")
	if !g[ti][mki] || !g[mki][ti] {
		t.Errorf("expected edge title-movie_keyword")
	}
	if !g[mki][ki] {
		t.Errorf("expected edge movie_keyword-keyword")
	}
	if g[ti][ki] {
		t.Errorf("unexpected edge title-keyword")
	}
	for j := range g[ci] {
		if g[ci][j] {
			t.Errorf("cast_info should have an empty row")
		}
	}
}

func TestValidateAcceptsGoodQuery(t *testing.T) {
	cat := datagen.IMDBCatalog()
	if err := sampleQuery().Validate(cat); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	single := New("s", []string{"title"}, nil, []Predicate{
		{Table: "title", Column: "kind", Op: Eq, Value: storage.StringValue("movie")},
	})
	if err := single.Validate(cat); err != nil {
		t.Fatalf("single-table Validate: %v", err)
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	cat := datagen.IMDBCatalog()
	cases := []struct {
		name string
		q    *Query
		want string
	}{
		{"empty", New("q", nil, nil, nil), "no relations"},
		{"unknown relation", New("q", []string{"nope"}, nil, nil), "unknown relation"},
		{
			"join to missing relation",
			New("q", []string{"title", "movie_keyword"},
				[]JoinPredicate{{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"}}, nil),
			"not in FROM",
		},
		{
			"join unknown column",
			New("q", []string{"title", "movie_keyword"},
				[]JoinPredicate{{LeftTable: "movie_keyword", LeftColumn: "wrong", RightTable: "title", RightColumn: "id"}}, nil),
			"unknown column",
		},
		{
			"predicate on missing relation",
			New("q", []string{"title"}, nil,
				[]Predicate{{Table: "keyword", Column: "keyword", Op: Eq, Value: storage.StringValue("x")}}),
			"not in FROM",
		},
		{
			"predicate type mismatch",
			New("q", []string{"title"}, nil,
				[]Predicate{{Table: "title", Column: "production_year", Op: Eq, Value: storage.StringValue("x")}}),
			"compares",
		},
		{
			"disconnected join graph",
			New("q", []string{"title", "keyword"}, nil, nil),
			"not connected",
		},
		{
			"duplicate relation",
			&Query{ID: "q", Relations: []string{"title", "title"}},
			"duplicate relation",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.q.Validate(cat)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestSQLRendering(t *testing.T) {
	q := sampleQuery()
	sql := q.SQL()
	for _, want := range []string{
		"SELECT count(*)", "FROM", "keyword, movie_keyword, title",
		"movie_keyword.movie_id = title.id", "keyword.keyword = 'love'", "title.production_year > 2000",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
	noPred := New("q", []string{"title"}, nil, nil)
	if strings.Contains(noPred.SQL(), "WHERE") {
		t.Errorf("query without predicates should have no WHERE clause: %s", noPred.SQL())
	}
}

func TestSignature(t *testing.T) {
	q := sampleQuery()
	// Same structure under a different ID and different predicate/join
	// declaration order must produce the same signature.
	reordered := New("other-id", q.Relations,
		[]JoinPredicate{q.Joins[1], q.Joins[0]},
		[]Predicate{q.Predicates[1], q.Predicates[0]})
	if q.Signature() != reordered.Signature() {
		t.Errorf("signature should be ID- and order-independent:\n%s\n%s", q.Signature(), reordered.Signature())
	}
	// Swapping a join predicate's sides is the same join.
	j := q.Joins[0]
	swapped := New("swap", q.Relations,
		append([]JoinPredicate{{LeftTable: j.RightTable, LeftColumn: j.RightColumn, RightTable: j.LeftTable, RightColumn: j.LeftColumn}}, q.Joins[1:]...),
		q.Predicates)
	if q.Signature() != swapped.Signature() {
		t.Errorf("signature should normalise join sides")
	}
	// A different predicate value is a different signature.
	changed := New(q.ID, q.Relations, q.Joins,
		append([]Predicate{{Table: q.Predicates[0].Table, Column: q.Predicates[0].Column, Op: q.Predicates[0].Op, Value: storage.StringValue("war")}}, q.Predicates[1:]...))
	if q.Signature() == changed.Signature() {
		t.Errorf("different predicates should produce different signatures")
	}
	// Fewer relations is a different signature.
	single := New("s", []string{"title"}, nil, nil)
	if single.Signature() == q.Signature() {
		t.Errorf("different relation sets should produce different signatures")
	}
}

package route

import (
	"fmt"
	"testing"
	"time"

	"neo/internal/query"
	"neo/internal/storage"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"", Full, false},
		{"full", Full, false},
		{"auto", Auto, false},
		{"fastpath", Full, true},
		{"bogus", Full, true},
		{"AUTO", Full, true},
	}
	for _, tc := range cases {
		got, err := ParseMode(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseMode(%q) error = %v, want error %v", tc.in, err, tc.err)
		}
		if got != tc.want {
			t.Errorf("ParseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, m := range []Mode{Full, Auto} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip of %v failed: got %v, err %v", m, back, err)
		}
	}
	// The zero value must be the historical behaviour.
	var zero Mode
	if zero != Full {
		t.Errorf("zero Mode should be Full")
	}
}

// yearEq is a visible equality predicate for tests that want a class the
// auto heuristic routes to the fast path.
var yearEq = []query.Predicate{{Table: "title", Column: "production_year", Op: query.Eq, Value: storage.IntValue(2000)}}

// chainQuery builds title—movie_keyword—keyword (every relation joins at most
// two others).
func chainQuery(preds []query.Predicate) *query.Query {
	return query.New("chain",
		[]string{"title", "movie_keyword", "keyword"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
		}, preds)
}

// starQuery builds a hub (title) with three spokes.
func starQuery(preds []query.Predicate) *query.Query {
	return query.New("star",
		[]string{"title", "movie_keyword", "movie_info", "cast_info"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_info", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "cast_info", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
		}, preds)
}

func TestClassifyShapes(t *testing.T) {
	single := query.New("single", []string{"title"}, nil, yearEq)
	if c := Classify(single); c.Shape != "single" || c.NumJoins != 0 || !c.SelVisible {
		t.Errorf("single: %+v", c)
	}
	if got, want := Classify(single).Key(), "single/0j/sel"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}

	if c := Classify(chainQuery(nil)); c.Shape != "chain" || c.SelVisible {
		t.Errorf("chain: %+v", c)
	}
	if c := Classify(starQuery(nil)); c.Shape != "star" {
		t.Errorf("star: %+v", c)
	}

	// A two-relation query is both a minimal chain and a minimal star; the
	// chain arm must win deterministically.
	pair := query.New("pair", []string{"title", "movie_keyword"},
		[]query.JoinPredicate{{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"}}, nil)
	if c := Classify(pair); c.Shape != "chain" {
		t.Errorf("pair: %+v", c)
	}

	// A cycle has n edges, not n−1.
	cycle := query.New("cycle", []string{"a", "b", "c"},
		[]query.JoinPredicate{
			{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "x"},
			{LeftTable: "b", LeftColumn: "y", RightTable: "c", RightColumn: "y"},
			{LeftTable: "c", LeftColumn: "z", RightTable: "a", RightColumn: "z"},
		}, nil)
	if c := Classify(cycle); c.Shape != "general" {
		t.Errorf("cycle: %+v", c)
	}

	// Disconnected graphs are general no matter the degrees.
	disc := query.New("disc", []string{"a", "b", "c", "d"},
		[]query.JoinPredicate{
			{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "x"},
			{LeftTable: "c", LeftColumn: "y", RightTable: "d", RightColumn: "y"},
		}, nil)
	if c := Classify(disc); c.Shape != "general" {
		t.Errorf("disconnected: %+v", c)
	}

	// Parallel join predicates between the same pair collapse to one edge, so
	// a chain with a composite join key stays a chain, not a cycle.
	parallel := query.New("parallel", []string{"a", "b"},
		[]query.JoinPredicate{
			{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "x"},
			{LeftTable: "a", LeftColumn: "y", RightTable: "b", RightColumn: "y"},
		}, nil)
	if c := Classify(parallel); c.Shape != "chain" {
		t.Errorf("parallel edges: %+v", c)
	}
}

func TestForcedModes(t *testing.T) {
	q := chainQuery(nil)
	full := New(Full, Policy{})
	if full.Decide(q).Fastpath {
		t.Errorf("Full mode routed to fastpath")
	}
}

func TestAutoHeuristic(t *testing.T) {
	r := New(Auto, Policy{})

	if !r.Decide(query.New("s", []string{"title"}, nil, nil)).Fastpath {
		t.Errorf("single relation should go fastpath")
	}
	if !r.Decide(chainQuery(yearEq)).Fastpath {
		t.Errorf("small chain with visible selectivity should go fastpath")
	}
	if r.Decide(chainQuery(nil)).Fastpath {
		t.Errorf("a chain without predicates gives the greedy ordering no signal; keep the full search")
	}
	if !r.Decide(starQuery(yearEq)).Fastpath {
		t.Errorf("3-join star with visible selectivity should go fastpath")
	}
	if r.Decide(starQuery(nil)).Fastpath {
		t.Errorf("a predicate-free star should keep the full search")
	}
	cycle := query.New("cycle", []string{"a", "b", "c"},
		[]query.JoinPredicate{
			{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "x"},
			{LeftTable: "b", LeftColumn: "y", RightTable: "c", RightColumn: "y"},
			{LeftTable: "c", LeftColumn: "z", RightTable: "a", RightColumn: "z"},
		}, nil)
	if r.Decide(cycle).Fastpath {
		t.Errorf("cyclic join graph should keep the full search")
	}

	// Up to maxFastpathJoins a selective chain takes the fast path; beyond
	// it the chain keeps the full search.
	if !r.Decide(longChain(maxFastpathJoins, true)).Fastpath {
		t.Errorf("selective chain of maxFastpathJoins joins should go fastpath")
	}
	if r.Decide(longChain(maxFastpathJoins+1, true)).Fastpath {
		t.Errorf("chain above maxFastpathJoins should keep the full search")
	}

	// A long chain without visible selectivity has nothing to order by.
	if r.Decide(longChain(5, false)).Fastpath {
		t.Errorf("a 5-join chain with no predicates should keep the full search")
	}
}

// longChain builds r0—r1—…—r{joins}, with a predicate on r0 when selective.
func longChain(joins int, selective bool) *query.Query {
	rels := []string{"r0"}
	var js []query.JoinPredicate
	for i := 1; i <= joins; i++ {
		rels = append(rels, fmt.Sprintf("r%d", i))
		js = append(js, query.JoinPredicate{LeftTable: rels[i-1], LeftColumn: "x", RightTable: rels[i], RightColumn: "x"})
	}
	var preds []query.Predicate
	if selective {
		preds = []query.Predicate{{Table: "r0", Column: "y", Op: query.Eq, Value: storage.IntValue(1)}}
	}
	return query.New(fmt.Sprintf("chain%d", joins), rels, js, preds)
}

func TestDecisionsAreDeterministic(t *testing.T) {
	queries := []*query.Query{
		chainQuery(nil),
		chainQuery(yearEq),
		starQuery(nil),
		query.New("s", []string{"title"}, nil, nil),
	}
	a, b := New(Auto, Policy{}), New(Auto, Policy{})
	for _, q := range queries {
		for i := 0; i < 3; i++ {
			da, db := a.Decide(q), b.Decide(q)
			if da != db {
				t.Errorf("identical routers disagree on %s: %+v vs %+v", q.ID, da, db)
			}
		}
	}
}

func TestRegretDemotionIsSticky(t *testing.T) {
	r := New(Auto, Policy{})
	q := chainQuery(yearEq)
	key := Classify(q).Key()

	if !r.Decide(q).Fastpath {
		t.Fatalf("chain should start on the fast path")
	}
	if !r.NeedsOutcome(q) {
		t.Fatalf("auto mode with fast-path decisions should want outcomes")
	}
	// Terrible samples below minRegretSamples: no demotion yet.
	for i := 1; i < minRegretSamples; i++ {
		r.RecordOutcome(key, 30, 1)
	}
	if !r.Decide(q).Fastpath {
		t.Fatalf("demotion before minRegretSamples")
	}
	// The next sample crosses the sample floor with mean ratio 30 > 1.5.
	r.RecordOutcome(key, 30, 1)
	if r.Decide(q).Fastpath {
		t.Fatalf("class should be demoted after %d samples of 30× regret", minRegretSamples)
	}
	if r.NeedsOutcome(q) {
		t.Errorf("demoted class should not request more outcomes")
	}
	// Sticky: even a flood of perfect samples cannot undo the demotion.
	for i := 0; i < 20; i++ {
		r.RecordOutcome(key, 1, 1)
	}
	if r.Decide(q).Fastpath {
		t.Errorf("demotion must be sticky")
	}

	st := r.Stats()
	if len(st.Classes) != 1 || !st.Classes[0].ReroutedFull {
		t.Errorf("stats should report the demotion: %+v", st.Classes)
	}
}

func TestRegretGuards(t *testing.T) {
	r := New(Auto, Policy{})
	q := chainQuery(yearEq)
	key := Classify(q).Key()
	r.Decide(q)
	// Non-positive observations and estimates are dropped, not folded in,
	// however many arrive.
	for i := 0; i < minRegretSamples; i++ {
		r.RecordOutcome(key, 0, 1)
		r.RecordOutcome(key, -5, 1)
		r.RecordOutcome(key, 10, 0)
	}
	if !r.Decide(q).Fastpath {
		t.Errorf("degenerate samples must not demote")
	}
	if st := r.Stats(); st.Classes[0].RegretSamples != 0 {
		t.Errorf("degenerate samples counted: %+v", st.Classes[0])
	}
}

func TestNeedsOutcomeGating(t *testing.T) {
	q := chainQuery(nil)
	r := New(Full, Policy{})
	r.Decide(q)
	if r.NeedsOutcome(q) {
		t.Errorf("full mode should never request outcomes (it does not learn)")
	}
	r = New(Auto, Policy{})
	if r.NeedsOutcome(q) {
		t.Errorf("a class never routed should not request outcomes")
	}
	cycle := query.New("cycle", []string{"a", "b", "c"},
		[]query.JoinPredicate{
			{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "x"},
			{LeftTable: "b", LeftColumn: "y", RightTable: "c", RightColumn: "y"},
			{LeftTable: "c", LeftColumn: "z", RightTable: "a", RightColumn: "z"},
		}, nil)
	r.Decide(cycle) // routed full
	if r.NeedsOutcome(cycle) {
		t.Errorf("a class with no fast-path decisions should not request outcomes")
	}
}

func TestStatsAggregation(t *testing.T) {
	r := New(Auto, Policy{})
	chain, star := chainQuery(yearEq), starQuery(yearEq)
	for i := 0; i < 3; i++ {
		d := r.Decide(chain)
		r.RecordFastpathLatency(d.Class, 10*time.Microsecond)
	}
	d := r.Decide(star)
	r.RecordFastpathLatency(d.Class, 5*time.Millisecond)

	st := r.Stats()
	if st.Mode != "auto" {
		t.Errorf("mode = %q", st.Mode)
	}
	if st.Fastpath != 4 || st.Full != 0 {
		t.Errorf("totals: %+v", st)
	}
	if len(st.Classes) != 2 {
		t.Fatalf("expected 2 classes, got %+v", st.Classes)
	}
	// Sorted by key: chain/2j/sel before star/3j/sel.
	if st.Classes[0].Class >= st.Classes[1].Class {
		t.Errorf("classes not sorted: %q, %q", st.Classes[0].Class, st.Classes[1].Class)
	}
	// Bucketed percentiles overestimate by at most 2×.
	chainStats := st.Classes[0]
	if chainStats.FastpathP50US < 10 || chainStats.FastpathP50US > 20 {
		t.Errorf("chain P50 = %vµs, want within [10, 20]", chainStats.FastpathP50US)
	}
	// The aggregate P99 must land in the slow class's bucket range.
	if st.FastpathP99US < 5000 || st.FastpathP99US > 10000 {
		t.Errorf("aggregate P99 = %vµs, want within [5000, 10000]", st.FastpathP99US)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h latencyHist
	if h.quantileUS(0.5) != 0 {
		t.Errorf("empty histogram should report 0")
	}
	for i := 0; i < 99; i++ {
		h.observe(1 * time.Microsecond)
	}
	h.observe(100 * time.Millisecond) // beyond the last bucket bound
	if p50 := h.quantileUS(0.50); p50 < 1 || p50 > 2.048 {
		t.Errorf("P50 = %v, want the ~1µs bucket", p50)
	}
	if p99 := h.quantileUS(0.99); p99 < 50_000 {
		t.Errorf("P99 = %v, should land in the overflow region", p99)
	}
}

package search

import (
	"math"
	"sync"
	"testing"
	"time"

	"neo/internal/datagen"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/storage"
)

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
		})
}

// structuralScorer is a deterministic synthetic cost model: loop joins are
// "expensive", hash joins and index scans are "cheap". Like the value
// network, it scores a *partial* plan with the best cost any completion of
// it could achieve (cost so far plus an optimistic estimate of the remaining
// joins and scans), so partial and complete plans live on the same scale.
func structuralScorer(p *plan.Plan) float64 {
	cost := 0.0
	for _, r := range p.Roots {
		r.Walk(func(n *plan.Node) {
			if n.IsLeaf() {
				switch n.Scan {
				case plan.IndexScan, plan.UnspecifiedScan:
					cost += 0.5 // unspecified scans may still become cheap index scans
				default:
					cost += 1.0
				}
				return
			}
			switch n.Join {
			case plan.LoopJoin:
				cost += 20
			case plan.MergeJoin:
				cost += 8
			default:
				cost += 3
			}
		})
	}
	// Optimistic completion cost: the remaining roots still need to be
	// joined, at best with the cheapest operator.
	cost += float64(len(p.Roots)-1) * 3
	return cost
}

func TestBestFirstFindsCompletePlan(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	res, err := BestFirst(q, ScorerFunc(structuralScorer), DefaultOptions(cat))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsComplete() {
		t.Fatalf("plan is not complete: %s", res.Plan)
	}
	if got := len(res.Plan.Roots[0].Tables()); got != 5 {
		t.Errorf("plan covers %d tables, want 5", got)
	}
	if res.Expansions == 0 || res.Evaluations == 0 {
		t.Errorf("expected non-zero search effort: %+v", res)
	}
	if res.Elapsed <= 0 {
		t.Errorf("elapsed should be positive")
	}
	// With this scorer, loop joins cost far more than hash joins; the chosen
	// plan should avoid them entirely.
	res.Plan.Roots[0].Walk(func(n *plan.Node) {
		if !n.IsLeaf() && n.Join == plan.LoopJoin {
			t.Errorf("search chose a loop join despite the scorer penalising it: %s", res.Plan)
		}
	})
}

func TestBestFirstRespectsExpansionBudget(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	res, err := BestFirst(q, ScorerFunc(structuralScorer), Options{Catalog: cat, MaxExpansions: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With such a tiny budget the search must fall back to hurry-up mode,
	// and still return a complete plan.
	if !res.HurryUp {
		t.Errorf("expected hurry-up mode with a 3-expansion budget")
	}
	if !res.Plan.IsComplete() {
		t.Errorf("hurry-up plan must still be complete")
	}
	// Expansions counts the 3 budgeted frontier pops plus the hurry-up
	// descents' steps (a complete 5-way plan is at most a handful of levels
	// away from any frontier node), so the reported effort can exceed the
	// frontier budget but never by more than the two greedy descents
	// hurry-up runs (last expanded node and best frontier node).
	if res.Expansions <= 3 {
		t.Errorf("expansions %d should include hurry-up descent steps on top of the 3 frontier pops", res.Expansions)
	}
	if max := 3 + 2*2*len(q.Relations); res.Expansions > max {
		t.Errorf("expansions %d exceed budget plus two greedy descents (max %d)", res.Expansions, max)
	}
}

func TestGreedyReportsExpansions(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	res, err := Greedy(q, ScorerFunc(structuralScorer), DefaultOptions(cat))
	if err != nil {
		t.Fatal(err)
	}
	// Building a complete 5-way plan greedily takes one descent step per
	// child generation; before the fix this was always reported as 0 and
	// /stats under-counted search effort.
	if res.Expansions == 0 {
		t.Fatalf("greedy descent reported zero expansions: %+v", res)
	}
	if res.Expansions > 2*len(q.Relations) {
		t.Errorf("greedy expansions %d implausibly high for a 5-way query", res.Expansions)
	}
	if res.Evaluations < res.Expansions {
		t.Errorf("evaluations %d < expansions %d: each step scores at least one child",
			res.Evaluations, res.Expansions)
	}
}

// TestTimeBudgetEntersHurryUp pins the anytime contract when wall-clock, not
// expansion count, is the binding budget: a scorer slow enough that a single
// batched call overshoots the deadline must still yield a complete plan via
// hurry-up, with the descent's effort counted.
func TestTimeBudgetEntersHurryUp(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	slow := ScorerFunc(func(p *plan.Plan) float64 {
		time.Sleep(200 * time.Microsecond)
		return structuralScorer(p)
	})
	res, err := BestFirst(q, slow, Options{Catalog: cat, MaxExpansions: 10_000, TimeBudget: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsComplete() {
		t.Fatalf("time-budgeted search returned an incomplete plan")
	}
	if !res.HurryUp {
		t.Errorf("a 1ms budget against a slow scorer should force hurry-up mode")
	}
	if res.Expansions == 0 {
		t.Errorf("hurry-up effort went uncounted: %+v", res)
	}
}

func TestLargerBudgetNeverWorse(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	small, err := BestFirst(q, ScorerFunc(structuralScorer), Options{Catalog: cat, MaxExpansions: 5})
	if err != nil {
		t.Fatal(err)
	}
	large, err := BestFirst(q, ScorerFunc(structuralScorer), Options{Catalog: cat, MaxExpansions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if large.Score > small.Score+1e-9 {
		t.Errorf("larger budget found a worse plan: %.2f vs %.2f", large.Score, small.Score)
	}
}

func TestGreedyVersusBestFirst(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	greedy, err := Greedy(q, ScorerFunc(structuralScorer), DefaultOptions(cat))
	if err != nil {
		t.Fatal(err)
	}
	if !greedy.Plan.IsComplete() || !greedy.HurryUp {
		t.Fatalf("greedy result malformed: %+v", greedy)
	}
	best, err := BestFirst(q, ScorerFunc(structuralScorer), DefaultOptions(cat))
	if err != nil {
		t.Fatal(err)
	}
	if best.Score > greedy.Score+1e-9 {
		t.Errorf("best-first (%.2f) should never be worse than greedy (%.2f)", best.Score, greedy.Score)
	}
	// Greedy evaluates far fewer states.
	if greedy.Evaluations >= best.Evaluations {
		t.Errorf("greedy should evaluate fewer states (%d vs %d)", greedy.Evaluations, best.Evaluations)
	}
}

func TestSingleTableQuery(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := query.New("single", []string{"title"}, nil, []query.Predicate{
		{Table: "title", Column: "production_year", Op: query.Eq, Value: storage.IntValue(2000)},
	})
	res, err := BestFirst(q, ScorerFunc(structuralScorer), DefaultOptions(cat))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsComplete() {
		t.Fatalf("single-table plan incomplete")
	}
	// The scorer prefers index scans (0.5 vs 1.0).
	if res.Plan.Roots[0].Scan != plan.IndexScan {
		t.Errorf("expected index scan, got %s", res.Plan)
	}
}

func TestEmptyQueryFails(t *testing.T) {
	cat := datagen.IMDBCatalog()
	if _, err := BestFirst(&query.Query{ID: "empty"}, ScorerFunc(structuralScorer), DefaultOptions(cat)); err == nil {
		t.Errorf("expected error for empty query")
	}
	if _, err := Greedy(&query.Query{ID: "empty"}, ScorerFunc(structuralScorer), DefaultOptions(cat)); err == nil {
		t.Errorf("expected error for empty query")
	}
}

func TestSearchMinimisesScorer(t *testing.T) {
	// With an exhaustive budget, the best-first result should be at least as
	// good as 200 random plans.
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	res, err := BestFirst(q, ScorerFunc(structuralScorer), Options{Catalog: cat, MaxExpansions: 5000})
	if err != nil {
		t.Fatal(err)
	}
	// Generate random complete plans via repeated greedy descents with a
	// noisy scorer and compare.
	for trial := 0; trial < 20; trial++ {
		noisy := ScorerFunc(func(p *plan.Plan) float64 {
			return structuralScorer(p) * (1 + float64((trial*31)%7)/10)
		})
		g, err := Greedy(q, noisy, DefaultOptions(cat))
		if err != nil {
			t.Fatal(err)
		}
		if structuralScorer(g.Plan) < res.Score-1e-9 {
			t.Errorf("found a plan better than best-first's: %.2f < %.2f", structuralScorer(g.Plan), res.Score)
		}
	}
}

// TestBestFirstExpansionsCountOnlyExpandedNodes pins the Result.Expansions
// contract: only pops that generate children count. The search dedups states
// by signature, so with an exhaustive budget every unique reachable state is
// pushed (and scored) exactly once and popped exactly once — meaning
// Expansions must equal the number of unique *incomplete* states and
// Evaluations the number of unique states overall. Before the fix every pop
// was counted, so Expansions reported the total including complete plans
// that generate no children.
func TestBestFirstExpansionsCountOnlyExpandedNodes(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := query.New("three",
		[]string{"title", "movie_keyword", "keyword"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
		},
		[]query.Predicate{
			{Table: "keyword", Column: "keyword", Op: query.Eq, Value: storage.StringValue("love")},
		})

	// Enumerate the unique state space exactly as the search sees it.
	childOpts := plan.ChildrenOptions{Catalog: cat}
	initial := plan.Initial(q)
	seen := map[string]bool{initial.Signature(): true}
	queue := []*plan.Plan{initial}
	total, incomplete := 0, 0
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		total++
		if !p.IsComplete() {
			incomplete++
			for _, c := range p.Children(childOpts) {
				if sig := c.Signature(); !seen[sig] {
					seen[sig] = true
					queue = append(queue, c)
				}
			}
		}
	}
	if total == incomplete {
		t.Fatalf("state space has no complete plans; the test cannot discriminate")
	}

	res, err := BestFirst(q, ScorerFunc(structuralScorer), Options{Catalog: cat, MaxExpansions: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.HurryUp {
		t.Fatalf("exhaustive budget must not trigger hurry-up mode")
	}
	if res.Expansions != incomplete {
		t.Errorf("Expansions = %d, want %d (unique incomplete states; pre-fix value was %d, the total including complete pops)",
			res.Expansions, incomplete, total)
	}
	if res.Evaluations != total {
		t.Errorf("Evaluations = %d, want %d (every unique state scored once)", res.Evaluations, total)
	}
}

// TestGreedyCrossProductFallbackIsPerLevel pins the dead-end recovery
// contract of the greedy descent: on a query whose join graph is
// disconnected (two components), the descent must complete the plan with
// exactly components−1 cross products, keeping every other join connected.
// Before the fix the fallback flipped AllowCrossProducts for the rest of the
// descent, so one dead end could let cross products outcompete connected
// joins on every later level.
func TestGreedyCrossProductFallbackIsPerLevel(t *testing.T) {
	cat := datagen.IMDBCatalog()
	// Built with query.New directly: Validate would reject a disconnected
	// join graph, but the planner must still handle one gracefully.
	q := query.New("disconnected",
		[]string{"title", "movie_keyword", "company", "movie_companies"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_companies", LeftColumn: "company_id", RightTable: "company", RightColumn: "id"},
		},
		[]query.Predicate{
			{Table: "title", Column: "production_year", Op: query.Eq, Value: storage.IntValue(2000)},
		})
	res, err := Greedy(q, ScorerFunc(structuralScorer), DefaultOptions(cat))
	if err != nil {
		t.Fatalf("greedy descent failed on a disconnected query: %v", err)
	}
	if !res.Plan.IsComplete() {
		t.Fatalf("plan incomplete: %s", res.Plan)
	}
	cross := 0
	res.Plan.Roots[0].Walk(func(n *plan.Node) {
		if n.IsLeaf() {
			return
		}
		if !q.Connected(n.Left.TableSet(), n.Right.TableSet()) {
			cross++
		}
	})
	if cross != 1 {
		t.Errorf("plan has %d cross products, want exactly 1 (components − 1): %s", cross, res.Plan)
	}
}

// timedScorer records when each batched scoring call starts and sleeps long
// enough that wall-clock, not the expansion count, is the binding budget.
type timedScorer struct {
	mu    sync.Mutex
	calls []time.Time
	delay time.Duration
}

func (s *timedScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	s.mu.Lock()
	s.calls = append(s.calls, time.Now())
	s.mu.Unlock()
	time.Sleep(s.delay)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = structuralScorer(p)
	}
	return out
}

// TestHurryUpSkipsSecondDescentPastDeadline pins the anytime contract of
// hurry-up mode: once the wall-clock deadline has passed, only the mandatory
// first descent runs (without it there is no plan at all); the opportunistic
// second descent from the frontier top is skipped. Before the fix both
// descents always ran, so a wide query overshot TimeBudget by a full extra
// descent. The bound is one descent's worth of scoring calls (≤ one batched
// call per level, ≤ 2·relations levels); two descents need roughly twice
// that and trip it.
func TestHurryUpSkipsSecondDescentPastDeadline(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	budget := 3 * time.Millisecond
	sc := &timedScorer{delay: time.Millisecond}
	start := time.Now()
	res, err := BestFirst(q, sc, Options{Catalog: cat, MaxExpansions: 1 << 20, TimeBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HurryUp {
		t.Fatalf("a %v budget against a %v-per-call scorer should force hurry-up mode", budget, sc.delay)
	}
	if !res.Plan.IsComplete() {
		t.Fatalf("hurry-up plan incomplete")
	}
	deadline := start.Add(budget)
	late := 0
	sc.mu.Lock()
	for _, c := range sc.calls {
		if c.After(deadline) {
			late++
		}
	}
	sc.mu.Unlock()
	if max := 2 * len(q.Relations); late > max {
		t.Errorf("%d scoring calls started after the deadline, want ≤ %d (one greedy descent)", late, max)
	}
}

func BenchmarkBestFirstFiveWay(b *testing.B) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	opts := DefaultOptions(cat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BestFirst(q, ScorerFunc(structuralScorer), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// nanFirstComplete scores the first complete plan it is shown NaN and every
// other plan 1: a network that overflowed on one input.
type nanFirstComplete struct{ poisoned *plan.Plan }

func (s *nanFirstComplete) ScoreBatch(ps []*plan.Plan) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = 1
		if p.IsComplete() && (s.poisoned == nil || s.poisoned == p) {
			s.poisoned = p
			out[i] = math.NaN()
		}
	}
	return out
}

// TestNaNScoredPlanNeverWins: every comparison against NaN is false, so a
// complete plan scored NaN used to stay the search's best against any number
// of finite-scored ones — and reach the client as "score": NaN, which
// encoding/json refuses. A NaN score must lose to every real one.
func TestNaNScoredPlanNeverWins(t *testing.T) {
	cat := datagen.IMDBCatalog()
	for name, strategy := range map[string]func(*query.Query, BatchScorer, Options) (*Result, error){"BestFirst": BestFirst, "Greedy": Greedy} {
		s := &nanFirstComplete{}
		res, err := strategy(fiveWayQuery(), s, Options{Catalog: cat, MaxExpansions: 4096})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.poisoned == nil {
			t.Fatalf("%s: the scorer never saw a complete plan", name)
		}
		if res.Plan == s.poisoned || res.Score != 1 {
			t.Errorf("%s returned %s with score %v; the NaN-scored plan is %s and every other plan scores 1",
				name, res.Plan, res.Score, s.poisoned)
		}
	}
}

// TestAllNaNScorerStillPlans: with nothing but NaN to go on, both strategies
// still return a complete, valid plan.
func TestAllNaNScorerStillPlans(t *testing.T) {
	cat := datagen.IMDBCatalog()
	allNaN := ScorerFunc(func(*plan.Plan) float64 { return math.NaN() })
	for name, strategy := range map[string]func(*query.Query, BatchScorer, Options) (*Result, error){"BestFirst": BestFirst, "Greedy": Greedy} {
		res, err := strategy(fiveWayQuery(), allNaN, Options{Catalog: cat, MaxExpansions: 64})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Plan.IsComplete() {
			t.Fatalf("%s returned the incomplete plan %s", name, res.Plan)
		}
		if got := len(res.Plan.Roots[0].Tables()); got != 5 {
			t.Errorf("%s: plan covers %d tables, want 5", name, got)
		}
		if math.IsNaN(res.Score) {
			t.Errorf("%s reports a NaN score", name)
		}
	}
}

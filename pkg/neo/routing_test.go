package neo

import (
	"sync"
	"testing"

	"neo/internal/datagen"
	"neo/internal/expert"
	"neo/internal/fastpath"
	"neo/internal/plan"
	"neo/internal/route"
	"neo/internal/search"
)

func TestOpenRejectsUnknownRouting(t *testing.T) {
	for _, mode := range []string{"bogus", "fastpath"} {
		if _, err := Open(Config{Scale: 0.1, Encoding: Histogram, Routing: mode}); err == nil {
			t.Errorf("Open(Routing: %q): expected an unknown-routing-mode error", mode)
		}
	}
	for _, mode := range []string{"", "full", "auto"} {
		sys, err := Open(Config{Scale: 0.1, Encoding: Histogram, Routing: mode})
		if err != nil {
			t.Fatalf("Open(Routing: %q): %v", mode, err)
		}
		sys.Close()
	}
}

// TestFastpathParityWithExhaustiveSearch pins greedy-equals-optimal on the
// pattern shapes the fast path is routed: under the fast path's own cost
// model, an exhaustive best-first search (every unique plan state scored)
// must find exactly the plan the microsecond greedy ordering builds.
func TestFastpathParityWithExhaustiveSearch(t *testing.T) {
	cat := datagen.IMDBCatalog()
	queries := []*Query{
		NewQuery("single-join", []string{"title", "movie_keyword"},
			[]JoinPredicate{
				{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			},
			[]Predicate{
				{Table: "title", Column: "production_year", Op: Eq, Value: IntValue(2000)},
			}),
		NewQuery("star", []string{"title", "movie_info", "cast_info"},
			[]JoinPredicate{
				{LeftTable: "movie_info", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
				{LeftTable: "cast_info", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			},
			[]Predicate{
				{Table: "movie_info", Column: "info_type_id", Op: Eq, Value: IntValue(3)},
			}),
	}
	for _, q := range queries {
		fr, err := fastpath.Plan(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.BestFirst(q,
			search.ScorerFunc(func(p *Plan) float64 { return fastpath.Cost(p, cat) }),
			search.Options{Catalog: cat, MaxExpansions: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if res.HurryUp {
			t.Fatalf("%s: budget truncated the exhaustive search", q.ID)
		}
		if got, want := fastpath.Cost(fr.Plan, cat), res.Score; got != want {
			t.Errorf("%s: greedy plan costs %v, exhaustive optimum %v", q.ID, got, want)
		}
		if fr.Plan.Signature() != res.Plan.Signature() {
			t.Errorf("%s: greedy plan %s differs from exhaustive optimum %s", q.ID, fr.Plan, res.Plan)
		}
	}
}

// Shared bootstrapped fixture for the routed-system tests: opening and
// bootstrapping is the expensive part, and the tests below only read from it
// (or touch disjoint router classes).
var (
	routedOnce sync.Once
	routedSys  *System
	routedWL   *Workload
	routedErr  error
)

func routedFixture(t *testing.T) (*System, *Workload) {
	t.Helper()
	routedOnce.Do(func() {
		routedSys, routedErr = Open(Config{
			Encoding:         Histogram,
			Scale:            0.25,
			Seed:             17,
			SearchExpansions: 64,
			Episodes:         3,
			Routing:          "auto",
			ValueNet: &ValueNetConfig{
				QueryLayers:  []int{32, 16},
				TreeChannels: []int{16, 16, 8},
				HeadLayers:   []int{16},
				LearningRate: 2e-3,
				UseLayerNorm: true,
				Seed:         3,
			},
		})
		if routedErr != nil {
			return
		}
		routedWL, routedErr = routedSys.GenerateWorkload(16)
		if routedErr != nil {
			return
		}
		routedErr = routedSys.Bootstrap(routedWL.Queries)
		if routedErr != nil {
			return
		}
		// Extra random-plan exploration beyond Bootstrap's two per query: the
		// regret comparison needs the network to price bad structures (plain
		// nested loops, upside-down hash builds) high, which it can only learn
		// from executed contrast.
		rp := expert.NewRandomPlanner(routedSys.Catalog, 211)
		routedErr = routedSys.Neo.Explore(routedWL.Queries, rp.Plan, 4)
		if routedErr != nil {
			return
		}
		// Refinement episodes in auto mode run the deployment loop: routed
		// queries execute their fast-path plans, and the observed latencies
		// calibrate the value network on the greedy structures it must score.
		_, routedErr = routedSys.Train(routedWL.Queries)
	})
	if routedErr != nil {
		t.Fatal(routedErr)
	}
	return routedSys, routedWL
}

// TestFastpathRegretWithinBound is the acceptance criterion for routing: on
// the queries the auto heuristic sends to the fast path, the value network
// must judge the greedy plan within 1.5× of the full best-first search's
// plan for at least 90% of them. Both plans are scored by the same trained
// network, so the ratio is the router's regret estimate, not an execution
// measurement.
func TestFastpathRegretWithinBound(t *testing.T) {
	sys, wl := routedFixture(t)
	probe := route.New(route.Auto, route.Policy{})
	routed, within := 0, 0
	for _, q := range wl.Queries {
		if !probe.Decide(q).Fastpath {
			continue
		}
		routed++
		fr, err := fastpath.Plan(q, sys.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		scorer := sys.Neo.Scorer(q)
		// The full best-first search, whatever the system's routing mode.
		best, err := search.BestFirst(q, scorer, search.Options{
			Catalog:       sys.Catalog,
			MaxExpansions: sys.Config.SearchExpansions,
		})
		if err != nil {
			t.Fatal(err)
		}
		if best.Score <= 0 {
			t.Fatalf("%s: non-positive network score %v for the best-first plan", q.ID, best.Score)
		}
		fastScore := scorer.ScoreBatch([]*plan.Plan{fr.Plan})[0]
		if fastScore <= 1.5*best.Score {
			within++
		} else {
			t.Logf("%s: fast-path plan scored %.3f vs best-first %.3f (%.2fx)",
				q.ID, fastScore, best.Score, fastScore/best.Score)
		}
	}
	if routed < len(wl.Queries)/2 {
		t.Fatalf("only %d/%d workload queries routed to the fast path; the acceptance sample is too small",
			routed, len(wl.Queries))
	}
	if 10*within < 9*routed {
		t.Errorf("fast-path plans within 1.5x of best-first on %d/%d routed queries, want >= 90%%", within, routed)
	}
}

// TestRoutedOptimizePopulatesRouteStats checks the serving surface: a system
// opened with auto routing reports its decisions through RouteStats.
func TestRoutedOptimizePopulatesRouteStats(t *testing.T) {
	sys, wl := routedFixture(t)
	for _, q := range wl.Queries[:4] {
		if _, _, err := sys.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.RouteStats()
	if st.Mode != "auto" {
		t.Errorf("mode = %q, want auto", st.Mode)
	}
	if st.Fastpath == 0 {
		t.Errorf("no fast-path decisions recorded: %+v", st)
	}
	if len(st.Classes) == 0 {
		t.Errorf("no per-class counters: %+v", st)
	}
	if st.FastpathP50US <= 0 {
		t.Errorf("fast-path P50 not recorded: %+v", st)
	}
}

// TestRouterDecisionsDeterministicAcrossSystems opens two identically-seeded
// systems and checks that the same workload produces identical per-class
// routing decisions (latency percentiles are wall-clock and excluded).
func TestRouterDecisionsDeterministicAcrossSystems(t *testing.T) {
	open := func() (*System, *Workload) {
		sys, err := Open(Config{
			Encoding: Histogram, Scale: 0.15, Seed: 7, SearchExpansions: 24, Routing: "auto",
			ValueNet: &ValueNetConfig{
				QueryLayers: []int{16, 8}, TreeChannels: []int{8, 8}, HeadLayers: []int{8},
				LearningRate: 2e-3, UseLayerNorm: true, Seed: 3,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		wl, err := sys.GenerateWorkload(10)
		if err != nil {
			t.Fatal(err)
		}
		return sys, wl
	}
	sysA, wlA := open()
	sysB, wlB := open()
	defer sysA.Close()
	defer sysB.Close()
	for i := range wlA.Queries {
		// Bypass the plan cache: route counts track planning decisions.
		if _, _, err := sysA.Neo.Optimize(wlA.Queries[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sysB.Neo.Optimize(wlB.Queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	stA, stB := sysA.RouteStats(), sysB.RouteStats()
	if stA.Fastpath != stB.Fastpath || stA.Full != stB.Full {
		t.Fatalf("decision totals diverge: %d/%d vs %d/%d", stA.Fastpath, stA.Full, stB.Fastpath, stB.Full)
	}
	if len(stA.Classes) != len(stB.Classes) {
		t.Fatalf("class sets diverge: %d vs %d", len(stA.Classes), len(stB.Classes))
	}
	for i := range stA.Classes {
		a, b := stA.Classes[i], stB.Classes[i]
		if a.Class != b.Class || a.Fastpath != b.Fastpath || a.Full != b.Full {
			t.Errorf("class %d diverges: %+v vs %+v", i, a, b)
		}
	}
}

// TestRegretDemotionEndToEnd drives the full online-refinement loop through
// the public surface: a class served by the fast path accumulates regret via
// ObserveLatency (observed latency vastly above the network's estimate for
// the search's plan) until the policy demotes it, after which the same class
// routes to the full search and /stats reports the re-route.
func TestRegretDemotionEndToEnd(t *testing.T) {
	sys, err := Open(Config{
		Encoding: Histogram, Scale: 0.15, Seed: 7, SearchExpansions: 24, Routing: "auto",
		ValueNet: &ValueNetConfig{
			QueryLayers: []int{16, 8}, TreeChannels: []int{8, 8}, HeadLayers: []int{8},
			LearningRate: 2e-3, UseLayerNorm: true, Seed: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	wl, err := sys.GenerateWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(wl.Queries[:4]); err != nil {
		t.Fatal(err)
	}

	q := NewQuery("victim", []string{"title", "movie_keyword"},
		[]JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
		},
		[]Predicate{
			{Table: "title", Column: "production_year", Op: Eq, Value: IntValue(1995)},
		})
	if _, _, err := sys.Neo.Optimize(q); err != nil {
		t.Fatal(err)
	}
	st := sys.RouteStats()
	if st.Fastpath == 0 {
		t.Fatalf("victim query was not routed to the fast path: %+v", st)
	}
	// Feed absurd observed latencies — mean regret far above any estimate —
	// until the default policy has enough samples to judge the class.
	pol := route.DefaultPolicy()
	for i := 0; i < pol.MinRegretSamples; i++ {
		sys.Neo.ObserveLatency(q, 1e9)
	}
	if _, _, err := sys.Neo.Optimize(q); err != nil {
		t.Fatal(err)
	}
	st = sys.RouteStats()
	key := route.Classify(q).Key()
	var cls *RouteClassStats
	for i := range st.Classes {
		if st.Classes[i].Class == key {
			cls = &st.Classes[i]
		}
	}
	if cls == nil {
		t.Fatalf("class %q missing from stats: %+v", key, st.Classes)
	}
	if !cls.ReroutedFull {
		t.Errorf("class not demoted after %d samples of enormous regret: %+v", cls.RegretSamples, cls)
	}
	if cls.Full == 0 {
		t.Errorf("demoted class still has no full-search decisions: %+v", cls)
	}
	if cls.RegretSamples < uint64(pol.MinRegretSamples) || cls.RegretMean <= pol.RegretThreshold {
		t.Errorf("regret accounting not reported: %+v", cls)
	}
}

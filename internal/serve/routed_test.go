package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"neo/internal/cluster/proto"
	"neo/pkg/neo"
)

// routedSystem is testSystem with auto routing: pattern-shaped queries take
// the statistics-free greedy planner, hard shapes keep the full search.
func routedSystem(t testing.TB) *neo.System {
	t.Helper()
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.OneHot,
		Scale:            0.15,
		Seed:             7,
		SearchExpansions: 24,
		Episodes:         1,
		Routing:          "auto",
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{16, 8},
			TreeChannels: []int{8, 8},
			HeadLayers:   []int{8},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sys.GenerateWorkload(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(wl.Queries[:4]); err != nil {
		t.Fatal(err)
	}
	return sys
}

// chainSpec builds a title—movie_keyword—keyword chain whose production_year
// literal varies per call: distinct literals mean distinct plan-cache
// signatures, so every request reaches the router instead of the cache.
func chainSpec(id string, year int64) proto.QuerySpec {
	q := neo.NewQuery(id,
		[]string{"title", "movie_keyword", "keyword"},
		[]neo.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
		},
		[]neo.Predicate{
			{Table: "title", Column: "production_year", Op: neo.Eq, Value: neo.IntValue(year)},
		})
	return specFor(q)
}

// TestServeRoutedAuto drives a routed daemon end to end (run under -race in
// CI): concurrent /optimize clients send pattern-shaped queries the auto
// heuristic routes to the fast path plus a predicate-free chain it keeps on
// the full search, /feedback closes the observed-latency loop, and /stats
// must report the router's counters for both outcomes.
func TestServeRoutedAuto(t *testing.T) {
	sys := routedSystem(t)
	srv := New(sys, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				spec := chainSpec(fmt.Sprintf("routed-%d-%d", c, i), int64(1980+10*c+i))
				var resp proto.OptimizeResponse
				if code := postJSON(t, ts.URL+"/optimize", spec, &resp); code != http.StatusOK {
					t.Errorf("optimize %s: status %d", spec.ID, code)
					return
				}
				if resp.Plan == "" {
					t.Errorf("optimize %s: empty plan", spec.ID)
					return
				}
				fb := proto.FeedbackRequest{Query: spec, LatencyMS: 5, NetVersion: resp.NetVersion}
				if code := postJSON(t, ts.URL+"/feedback", fb, nil); code != http.StatusOK {
					t.Errorf("feedback %s: status %d", spec.ID, code)
				}
			}
		}(c)
	}
	wg.Wait()

	// A chain with no predicate gives the greedy ordering nothing to order
	// by; the heuristic must keep it on the full search.
	nosel := specFor(neo.NewQuery("routed-nosel",
		[]string{"title", "movie_keyword", "keyword"},
		[]neo.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
		}, nil))
	var resp proto.OptimizeResponse
	if code := postJSON(t, ts.URL+"/optimize", nosel, &resp); code != http.StatusOK {
		t.Fatalf("optimize %s: status %d", nosel.ID, code)
	}

	st := getStats(t, ts.URL)
	if st.Routing == nil {
		t.Fatalf("/stats omitted the routing section for an auto-routed system")
	}
	if st.Routing.Mode != "auto" {
		t.Errorf("routing mode = %q, want auto", st.Routing.Mode)
	}
	if st.Routing.Fastpath < clients*3 {
		t.Errorf("fastpath decisions = %d, want >= %d (every distinct chain literal is a cache miss)",
			st.Routing.Fastpath, clients*3)
	}
	if st.Routing.Full == 0 {
		t.Errorf("predicate-free chain should have produced a full-search decision: %+v", st.Routing)
	}
	if st.Routing.FastpathP50US <= 0 {
		t.Errorf("fast-path planning latency percentiles missing: %+v", st.Routing)
	}
	if len(st.Routing.Classes) < 2 {
		t.Errorf("expected at least two routing classes (sel and nosel chains), got %+v", st.Routing.Classes)
	}
}

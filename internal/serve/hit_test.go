package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"neo/internal/cluster/proto"
)

// TestStrictRequestBodies: trailing data, a misspelled key and a field given
// twice are 400s on /optimize and /feedback. A lenient decoder plans the
// first two, the misspelled "predicate" as the unfiltered query, and the
// last with its second value.
func TestStrictRequestBodies(t *testing.T) {
	sys, _ := testSystem(t)
	srv := New(sys, Config{})
	defer srv.Close()
	for _, tc := range []struct{ path, body string }{
		{"/optimize", `{"relations":["title"]} this is not json`},
		{"/optimize", `{"relations":["title"],"predicate":[{"column":"title.production_year","op":"=","value":1985}]}`},
		{"/optimize", `{"relations":["title"],"predicates":[{"column":"title.production_year","op":"=","value":1985,"value":1986}]}`},
		{"/feedback", `{"query":{"relations":["title"]},"latency_ms":5} {}`},
		{"/feedback", `{"query":{"relations":["title"]},"latency_ms":5,"net_versoin":1}`},
		{"/feedback", `{"query":{"relations":["title"]},"latency_ms":5,"latency_ms":6}`},
	} {
		w := postPath(srv, tc.path, []byte(tc.body))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", tc.path, tc.body, w.Code, w.Body)
		}
	}
}

// TestOptimizeHitAllocationBudget: a plan-cache hit through ServeHTTP —
// request and recorder set-up included — stays within an allocation budget.
// A hit that decodes by reflection and renders its reply afresh costs over
// 200.
func TestOptimizeHitAllocationBudget(t *testing.T) {
	sys, queries := testSystem(t)
	srv := New(sys, Config{})
	defer srv.Close()
	body, err := json.Marshal(specFor(queries[len(queries)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if w := post(srv, body); w.Code != http.StatusOK {
		t.Fatalf("miss: status %d: %s", w.Code, w.Body)
	}
	const budget = 60
	if n := testing.AllocsPerRun(200, func() { post(srv, body) }); n > budget {
		t.Errorf("a hit allocates %.0f times, budget %d", n, budget)
	}
}

// TestOptimizeHitAcrossSnapshotSwap (run under -race in CI): hits race
// snapshot loads alternating between two versions, and every reply's plan,
// score and expansions must be the ones its net_version's snapshot gave on
// the miss — a reply never mixes a cached answer of one snapshot with
// another's version, and a hit reports the expansions of the search that
// filled its entry.
func TestOptimizeHitAcrossSnapshotSwap(t *testing.T) {
	snapshots, old, fresh, _ := twoVersions(t)
	sys, queries := testSystem(t)
	defer sys.Close()
	srv := New(sys, Config{})
	defer srv.Close()
	load := func(v uint64) {
		if err := sys.LoadCheckpoint(bytes.NewReader(snapshots[v])); err != nil {
			t.Error(err)
		}
	}
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		var err error
		if bodies[i], err = json.Marshal(specFor(q)); err != nil {
			t.Fatal(err)
		}
	}
	type answer struct {
		plan       string
		score      float64
		expansions int
	}
	want := map[uint64][]answer{}
	for _, v := range []uint64{fresh, old} {
		load(v)
		for i, body := range bodies {
			var miss, hit proto.OptimizeResponse
			hits := sys.Neo.PlanCacheStats().Hits
			w := post(srv, body)
			if err := json.Unmarshal(w.Body.Bytes(), &miss); err != nil || miss.NetVersion != v {
				t.Fatalf("version %d: status %d, %s", v, w.Code, w.Body)
			}
			w = post(srv, body)
			if err := json.Unmarshal(w.Body.Bytes(), &hit); err != nil || w.Code != http.StatusOK {
				t.Fatalf("version %d hit: status %d, %s", v, w.Code, w.Body)
			}
			if got := sys.Neo.PlanCacheStats().Hits - hits; got != 1 {
				t.Fatalf("version %d query %d: %d cache hits over a miss and a repeat, want 1", v, i, got)
			}
			if miss.Expansions == 0 || hit != miss {
				t.Fatalf("version %d query %d: hit %+v, miss %+v; want the miss's reply, expansions included", v, i, hit, miss)
			}
			want[v] = append(want[v], answer{miss.Plan, miss.Score, miss.Expansions})
		}
	}

	var stop atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := c; !stop.Load(); n++ {
				i := n % len(bodies)
				w := post(srv, bodies[i])
				var resp proto.OptimizeResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
					t.Errorf("status %d: %s", w.Code, w.Body)
					return
				}
				exp, ok := want[resp.NetVersion]
				if !ok || (answer{resp.Plan, resp.Score, resp.Expansions}) != exp[i] {
					t.Errorf("query %d under version %d: plan %s score %v expansions %d, want %+v", i, resp.NetVersion, resp.Plan, resp.Score, resp.Expansions, exp)
					return
				}
				served.Add(1)
			}
		}(c)
	}
	// Each snapshot serves every query a few times — its misses, then hits —
	// before the next load replaces it.
	for k := 0; k < 20 && !t.Failed(); k++ {
		load([]uint64{fresh, old}[k%2])
		for start := served.Load(); served.Load()-start < int64(3*len(bodies)) && !t.Failed(); {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
}

// BenchmarkOptimizeHit times one plan-cache hit through ServeHTTP, request
// and recorder set-up included.
func BenchmarkOptimizeHit(b *testing.B) {
	sys, queries := testSystem(b)
	srv := New(sys, Config{})
	defer srv.Close()
	body, err := json.Marshal(specFor(queries[len(queries)-1]))
	if err != nil {
		b.Fatal(err)
	}
	if w := post(srv, body); w.Code != http.StatusOK {
		b.Fatalf("miss: status %d: %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(srv, body)
	}
}

package neo

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// setProcs sets GOMAXPROCS — the width of every worker pool — to procs for
// the rest of the test and restores the previous value when the test ends.
func setProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func smallSystem(t testing.TB, dataset, engineName string, enc Encoding) *System {
	t.Helper()
	sys, err := Open(Config{
		Dataset:          dataset,
		Engine:           engineName,
		Encoding:         enc,
		Scale:            0.15,
		Seed:             7,
		SearchExpansions: 32,
		Episodes:         1,
		ValueNet: &ValueNetConfig{
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
	return sys
}

func TestOpenDefaults(t *testing.T) {
	sys := smallSystem(t, "", "", Histogram)
	if sys.Config.Dataset != "imdb" || sys.Config.Engine != "postgres" {
		t.Errorf("defaults not applied: %+v", sys.Config)
	}
	if sys.DB == nil || sys.Catalog == nil || sys.Engine == nil || sys.Neo == nil {
		t.Fatalf("system is missing components")
	}
	if sys.Catalog.NumRelations() == 0 {
		t.Errorf("catalog should describe relations")
	}
}

func TestOpenRejectsUnknowns(t *testing.T) {
	if _, err := Open(Config{Dataset: "nope", Scale: 0.1}); err == nil {
		t.Errorf("unknown dataset should error")
	}
	if _, err := Open(Config{Engine: "db2", Scale: 0.1}); err == nil {
		t.Errorf("unknown engine should error")
	}
}

func TestEndToEndQuickstartFlow(t *testing.T) {
	sys := smallSystem(t, "imdb", "postgres", Histogram)
	wl, err := sys.GenerateWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	train, test := wl.Split(0.8, 1)
	if err := sys.Bootstrap(train); err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != sys.Config.Episodes {
		t.Errorf("expected %d episode stats, got %d", sys.Config.Episodes, len(stats))
	}
	for _, q := range test {
		neoLat, nativeLat, err := sys.Compare(q)
		if err != nil {
			t.Fatalf("Compare(%s): %v", q.ID, err)
		}
		if neoLat <= 0 || nativeLat <= 0 {
			t.Errorf("latencies should be positive: neo=%f native=%f", neoLat, nativeLat)
		}
	}
	// Expert and native plans are available and executable.
	q := test[0]
	ep, err := sys.ExpertPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(ep); err != nil {
		t.Errorf("expert plan does not execute: %v", err)
	}
	card, err := sys.TrueCardinality(q)
	if err != nil {
		t.Fatal(err)
	}
	if card < 0 {
		t.Errorf("cardinality should be non-negative")
	}
}

func TestUnseenWorkload(t *testing.T) {
	sys := smallSystem(t, "imdb", "sqlite", OneHot)
	base, err := sys.GenerateWorkload(6)
	if err != nil {
		t.Fatal(err)
	}
	unseen, err := sys.GenerateUnseenWorkload(3, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(unseen.Queries) != 3 {
		t.Errorf("expected 3 unseen queries, got %d", len(unseen.Queries))
	}
}

func TestDiskEngineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(Config{
		Dataset:          "imdb",
		Engine:           "disk",
		Encoding:         Histogram,
		Scale:            0.15,
		Seed:             7,
		SearchExpansions: 32,
		Episodes:         1,
		DataDir:          dir,
		BufferPoolMB:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if name := sys.Engine.Backend.Name(); name != "disk" {
		t.Fatalf("backend = %q, want disk", name)
	}
	if !sys.Engine.Backend.Measured() {
		t.Fatalf("disk backend must report measured latencies")
	}

	wl, err := sys.GenerateWorkload(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range wl.Queries {
		p, err := sys.ExpertPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := sys.Execute(p)
		if err != nil {
			t.Fatalf("Execute(%s): %v", q.ID, err)
		}
		if lat <= 0 {
			t.Errorf("%s: measured latency should be positive, got %g", q.ID, lat)
		}
	}
	st, ok := sys.StorageStats()
	if !ok {
		t.Fatalf("disk system should report storage stats")
	}
	if st.Misses == 0 || st.BytesRead == 0 {
		t.Errorf("execution should have read pages through the pool: %+v", st)
	}

	// A second Open over the same data directory reuses the heap files
	// instead of re-materializing.
	before := heapModTimes(t, dir)
	sys2, err := Open(Config{
		Dataset: "imdb", Engine: "disk", Encoding: Histogram,
		Scale: 0.15, Seed: 7, DataDir: dir, BufferPoolMB: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	for name, mod := range heapModTimes(t, dir) {
		if !mod.Equal(before[name]) {
			t.Errorf("%s was rewritten on reuse", name)
		}
	}

	// A mismatched data directory (different scale) is detected and
	// re-materialized in place rather than served stale.
	sys3, err := Open(Config{
		Dataset: "imdb", Engine: "disk", Encoding: Histogram,
		Scale: 0.25, Seed: 7, DataDir: dir, BufferPoolMB: 1,
	})
	if err != nil {
		t.Fatalf("stale data dir should be re-materialized, got %v", err)
	}
	defer sys3.Close()
	if sys3.DB.TotalRows() == sys.DB.TotalRows() {
		t.Fatalf("test needs distinct scales to detect staleness")
	}
}

func heapModTimes(t *testing.T, dir string) map[string]time.Time {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]time.Time)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.ModTime()
	}
	if len(out) == 0 {
		t.Fatalf("no heap files in %s", dir)
	}
	return out
}

func TestNewQueryHelper(t *testing.T) {
	q := NewQuery("q", []string{"title"}, nil, nil)
	if q.ID != "q" || len(q.Relations) != 1 {
		t.Errorf("NewQuery malformed: %+v", q)
	}
}

func TestTPCHAndCorpSystems(t *testing.T) {
	for _, ds := range []string{"tpch", "corp"} {
		sys := smallSystem(t, ds, "engine-m", Histogram)
		wl, err := sys.GenerateWorkload(5)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if len(wl.Queries) != 5 {
			t.Errorf("%s: expected 5 queries, got %d", ds, len(wl.Queries))
		}
		p, err := sys.NativePlan(wl.Queries[0])
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if _, err := sys.Execute(p); err != nil {
			t.Errorf("%s: native plan does not execute: %v", ds, err)
		}
	}
}

func TestPlanAllMatchesSequentialOptimize(t *testing.T) {
	sys := smallSystem(t, "imdb", "postgres", Histogram)
	wl, err := sys.GenerateWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(wl.Queries); err != nil {
		t.Fatal(err)
	}

	setProcs(t, 4)
	results := sys.PlanAll(wl.Queries)
	if len(results) != len(wl.Queries) {
		t.Fatalf("PlanAll returned %d results, want %d", len(results), len(wl.Queries))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("PlanAll query %s: %v", wl.Queries[i].ID, r.Err)
		}
		if r.Query != wl.Queries[i] {
			t.Errorf("result %d out of order: got query %s", i, r.Query.ID)
		}
		if r.Plan == nil || !r.Plan.IsComplete() {
			t.Errorf("query %s: incomplete plan from PlanAll", wl.Queries[i].ID)
		}
		p, _, err := sys.Optimize(wl.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Plan.Signature() != p.Signature() {
			t.Errorf("query %s: concurrent plan differs from sequential plan", wl.Queries[i].ID)
		}
	}
	// Degenerate pool and batch sizes fall back to sane behaviour.
	setProcs(t, 1)
	if got := sys.PlanAll(wl.Queries[:1]); len(got) != 1 || got[0].Err != nil {
		t.Errorf("PlanAll at GOMAXPROCS 1 failed: %+v", got)
	}
	if got := sys.PlanAll(nil); len(got) != 0 {
		t.Errorf("PlanAll(nil) returned %d results", len(got))
	}
}

// TestPlanCache exercises the signature-keyed plan cache: repeated queries
// skip the search, structurally identical queries under different IDs share
// an entry, and a retraining round (network swap) invalidates everything.
func TestPlanCache(t *testing.T) {
	sys := smallSystem(t, "imdb", "postgres", Histogram)
	wl, err := sys.GenerateWorkload(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(wl.Queries); err != nil {
		t.Fatal(err)
	}
	q := wl.Queries[0]

	p1, r1, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, r2, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || r1 != r2 {
		t.Errorf("second Optimize of the same query should be served from the cache")
	}
	st := sys.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("cache stats after two lookups = %+v, want 1 hit / 1 miss / size 1", st)
	}

	// A structurally identical query under a different ID hits the cache and
	// gets the plan re-bound to its own identity.
	alias := NewQuery("alias-id", q.Relations, q.Joins, q.Predicates)
	p3, r3, err := sys.Optimize(alias)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Query != alias {
		t.Errorf("cached plan should be re-bound to the requesting query")
	}
	if p3.Signature() != p1.Signature() || r3.Plan != p3 {
		t.Errorf("re-bound plan should share the cached plan's structure")
	}
	if st = sys.PlanCacheStats(); st.Hits != 2 {
		t.Errorf("alias lookup should hit the cache: %+v", st)
	}

	// Retraining swaps the network; the next lookup must drop the cache.
	version := sys.Neo.NetVersion()
	sys.Neo.Retrain()
	if sys.Neo.NetVersion() != version+1 {
		t.Fatalf("Retrain should bump the network version")
	}
	p4, _, err := sys.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Errorf("plan should be re-searched after a network swap")
	}
	if st = sys.PlanCacheStats(); st.Size != 1 || st.Version != version+1 {
		t.Errorf("cache should hold only the re-searched plan at the new version: %+v", st)
	}
}

// TestPlanAllWhileRetrainAsync exercises the double-buffered serving path
// under -race: concurrent PlanAll batches keep planning from the previous
// network snapshot while a background retraining round swaps in a new one.
func TestPlanAllWhileRetrainAsync(t *testing.T) {
	sys := smallSystem(t, "imdb", "postgres", Histogram)
	wl, err := sys.GenerateWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(wl.Queries); err != nil {
		t.Fatal(err)
	}
	done := make(chan float64, 1)
	setProcs(t, 4)
	go func() { done <- sys.Neo.Retrain() }()
	for i := 0; i < 3; i++ {
		for _, r := range sys.PlanAll(wl.Queries) {
			if r.Err != nil {
				t.Fatalf("PlanAll during async retrain: %v", r.Err)
			}
			if r.Plan == nil || !r.Plan.IsComplete() {
				t.Fatalf("incomplete plan during async retrain")
			}
		}
	}
	if loss := <-done; loss <= 0 {
		t.Errorf("async retrain should report a positive loss, got %v", loss)
	}
	// After the swap, planning still works and the cache rebuilt itself.
	if _, _, err := sys.Optimize(wl.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if st := sys.PlanCacheStats(); st.Version != sys.Neo.NetVersion() {
		t.Errorf("cache version %d should track the network version %d", st.Version, sys.Neo.NetVersion())
	}
}

// TestEvaluateDeterministicAcrossWorkers checks the facade-level promise
// that the worker-pool size (GOMAXPROCS) only changes wall-clock time, never
// results.
func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	build := func() (*System, []*Query) {
		sys, err := Open(Config{
			Dataset: "imdb", Engine: "postgres", Encoding: Histogram,
			Scale: 0.15, Seed: 7, SearchExpansions: 32, Episodes: 1,
			ValueNet: &ValueNetConfig{
				QueryLayers: []int{16, 8}, TreeChannels: []int{8, 8}, HeadLayers: []int{8},
				LearningRate: 2e-3, UseLayerNorm: true, Seed: 3,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		wl, err := sys.GenerateWorkload(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Bootstrap(wl.Queries[:5]); err != nil {
			t.Fatal(err)
		}
		return sys, wl.Queries[5:]
	}
	serialSys, serialTest := build()
	parallelSys, parallelTest := build()
	setProcs(t, 1)
	sTotal, sPer, err := serialSys.Evaluate(serialTest)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	pTotal, pPer, err := parallelSys.Evaluate(parallelTest)
	if err != nil {
		t.Fatal(err)
	}
	if sTotal != pTotal {
		t.Errorf("Evaluate totals differ across worker counts: %v vs %v", sTotal, pTotal)
	}
	for id, lat := range sPer {
		if pPer[id] != lat {
			t.Errorf("query %s: latency differs across worker counts: %v vs %v", id, lat, pPer[id])
		}
	}
}

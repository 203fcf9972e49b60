package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/search"
)

// gateCardinality is a constant cardinality source that, once armed, parks
// the next plan encoding — i.e. the search that issued it — until released.
// It lets a test hold one search in flight while waiters pile up behind it or
// a snapshot swap lands.
type gateCardinality struct {
	armed   atomic.Bool
	started chan struct{}
	release chan struct{}
}

func (g *gateCardinality) NodeCardinality(*query.Query, *plan.Joins, *plan.Node, float64, float64) float64 {
	if g.armed.CompareAndSwap(true, false) {
		close(g.started)
		<-g.release
	}
	return 1
}

// gatedRig is a bootstrapped rig whose featurizer encodes through a
// gateCardinality (installed before New, which sizes the network on it).
func gatedRig(t *testing.T) (*testRig, *gateCardinality) {
	rig := newRig(t, "postgres")
	gate := &gateCardinality{started: make(chan struct{}), release: make(chan struct{})}
	rig.feat.Cardinality = gate
	cfg := rig.neo.Config
	rig.neo = New(rig.eng, rig.feat, cfg)
	if err := rig.neo.Bootstrap(rig.wl.Queries[:4], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	return rig, gate
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestOptimizeCachedSingleFlight: N concurrent requests for one query
// structure — distinct Query values under distinct IDs — on a freshly
// published snapshot run exactly one search. The counters move by one miss
// and N-1 hits, and every caller gets the same plan tree bound to its own
// query.
func TestOptimizeCachedSingleFlight(t *testing.T) {
	rig, gate := gatedRig(t)
	n := rig.neo
	base := rig.wl.Queries[5]
	before := n.PlanCacheStats()
	if before.Size != 0 {
		t.Fatalf("freshly published snapshot caches %d plans", before.Size)
	}

	const callers = 8
	queries := make([]*query.Query, callers)
	plans := make([]*plan.Plan, callers)
	results := make([]*search.Result, callers)
	errs := make([]error, callers)
	gate.armed.Store(true)
	var wg sync.WaitGroup
	for i := range queries {
		q := *base
		q.ID = base.ID + "-caller-" + string(rune('a'+i))
		queries[i] = &q
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], results[i], _, errs[i] = n.OptimizeCached(queries[i])
		}(i)
	}
	// Hold the one search until every other caller is waiting on its entry.
	<-gate.started
	waitFor(t, "the waiters to attach", func() bool { return n.PlanCacheStats().Hits == before.Hits+callers-1 })
	close(gate.release)
	wg.Wait()

	after := n.PlanCacheStats()
	if after.Misses != before.Misses+1 || after.Hits != before.Hits+callers-1 || after.Size != 1 {
		t.Fatalf("stats moved %+v -> %+v, want exactly 1 miss, %d hits, 1 entry", before, after, callers-1)
	}
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if plans[i].Query != queries[i] || results[i].Plan != plans[i] {
			t.Errorf("caller %d: plan is not bound to the caller's own query", i)
		}
		if plans[i].Signature() != plans[0].Signature() || results[i].Score != results[0].Score {
			t.Errorf("caller %d: plan differs from caller 0's:\n%s\n%s", i, plans[i].Signature(), plans[0].Signature())
		}
	}
}

// TestPlanCacheFailedSearchIsShared: a search that fails hands its error to
// every caller waiting on it and leaves nothing cached, so the next request
// searches again.
func TestPlanCacheFailedSearchIsShared(t *testing.T) {
	rig := newRig(t, "postgres")
	q := rig.wl.Queries[0]
	var counters planCounters
	c := &planCache{counters: &counters, entries: make(map[string]*CachedPlan)}
	boom := errors.New("boom")
	release := make(chan struct{})
	var searches atomic.Int64
	failing := func() (*plan.Plan, *search.Result, error) {
		searches.Add(1)
		<-release
		return nil, nil, boom
	}

	const callers = 6
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.get(q.Signature(), failing).Err()
		}(i)
	}
	waitFor(t, "the waiters to attach", func() bool { return counters.hits.Load() == callers-1 })
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d got %v, want the search's error", i, err)
		}
	}
	if got := searches.Load(); got != 1 {
		t.Errorf("%d searches ran for %d concurrent callers, want 1", got, callers)
	}
	if c.size() != 0 {
		t.Fatalf("failed search left %d entries cached", c.size())
	}
	want := &plan.Plan{Query: q}
	p, _, err := c.get(q.Signature(), func() (*plan.Plan, *search.Result, error) { return want, &search.Result{Plan: want}, nil }).Bind(q)
	if err != nil || p != want || searches.Load() != 1 {
		t.Fatalf("request after the failure did not search afresh: plan %v err %v", p, err)
	}
}

// TestOptimizeCachedPinsOneSnapshot: a snapshot swap that lands while a
// search is running must not leak into that request. The version returned is
// the superseded snapshot's — the one whose weights scored the plan — the
// entry lands in that snapshot's cache, and the new snapshot starts empty.
func TestOptimizeCachedPinsOneSnapshot(t *testing.T) {
	rig, gate := gatedRig(t)
	n := rig.neo
	q := rig.wl.Queries[5]
	old := n.snap.Load()

	type outcome struct {
		p       *plan.Plan
		version uint64
		err     error
	}
	done := make(chan outcome, 1)
	gate.armed.Store(true)
	go func() {
		p, _, v, err := n.OptimizeCached(q)
		done <- outcome{p, v, err}
	}()
	<-gate.started
	n.Retrain() // publishes old.version+1 while the search is parked
	fresh := n.snap.Load()
	if fresh == old || fresh.version != old.version+1 {
		t.Fatalf("retrain did not publish a new snapshot: %d -> %d", old.version, fresh.version)
	}
	close(gate.release)
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}

	if got.version != old.version {
		t.Errorf("reported version %d, want %d (the snapshot the search was pinned to)", got.version, old.version)
	}
	want, _, err := n.optimizeOn(old, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.p.Signature() != want.Signature() {
		t.Errorf("plan was not searched with the reported version's weights:\ngot  %s\nwant %s", got.p.Signature(), want.Signature())
	}
	if old.plans.size() != 1 {
		t.Errorf("superseded snapshot caches %d plans, want the one it searched", old.plans.size())
	}
	if fresh.plans.size() != 0 {
		t.Errorf("new snapshot inherited %d plans searched with other weights", fresh.plans.size())
	}
	if st := n.PlanCacheStats(); st.Version != fresh.version || st.Size != 0 {
		t.Errorf("stats report %+v, want the serving snapshot's version %d and an empty cache", st, fresh.version)
	}
}

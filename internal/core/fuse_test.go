package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"neo/internal/search"
	"neo/internal/treeconv"
)

// fusedRig is newRig with cross-request scoring fusion enabled before any
// engine execution happens, so its noise stream — and with it every
// bootstrap latency and trained weight — stays bit-identical to a plain rig
// built from the same seeds.
func fusedRig(t *testing.T) *testRig {
	rig := newRig(t, "postgres")
	cfg := rig.neo.Config
	cfg.FuseScoring = true
	rig.neo = New(rig.eng, rig.feat, cfg)
	return rig
}

// TestFusedOptimizeMatchesPrivate is the end-to-end determinism contract of
// the scheduler: a system serving 8 concurrent searches through one shared
// micro-batching scheduler must plan every query bit-identically (signature,
// score, search effort) to an identically-seeded system scoring privately.
func TestFusedOptimizeMatchesPrivate(t *testing.T) {
	private := newRig(t, "postgres")
	fused := fusedRig(t)
	queries := private.wl.Queries[:8]
	if err := private.neo.Bootstrap(queries, private.expertFunc()); err != nil {
		t.Fatal(err)
	}
	if err := fused.neo.Bootstrap(fused.wl.Queries[:8], fused.expertFunc()); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		sig   string
		score float64
		exp   int
		evals int
		err   error
	}
	planAll := func(n *Neo, rig *testRig) []outcome {
		out := make([]outcome, len(queries))
		var wg sync.WaitGroup
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p, res, err := n.Optimize(rig.wl.Queries[i])
				if err != nil {
					out[i] = outcome{err: err}
					return
				}
				out[i] = outcome{sig: p.Signature(), score: res.Score, exp: res.Expansions, evals: res.Evaluations}
			}(i)
		}
		wg.Wait()
		return out
	}

	pres := planAll(private.neo, private)
	fres := planAll(fused.neo, fused)
	for i := range queries {
		if pres[i].err != nil || fres[i].err != nil {
			t.Fatalf("query %s: private err %v, fused err %v", queries[i].ID, pres[i].err, fres[i].err)
		}
		if pres[i].sig != fres[i].sig {
			t.Errorf("query %s: plan signatures diverge under fusion\nprivate: %s\nfused:   %s",
				queries[i].ID, pres[i].sig, fres[i].sig)
		}
		if math.Abs(pres[i].score-fres[i].score) > 1e-9 {
			t.Errorf("query %s: scores diverge under fusion: private %v, fused %v",
				queries[i].ID, pres[i].score, fres[i].score)
		}
		if pres[i].exp != fres[i].exp || pres[i].evals != fres[i].evals {
			t.Errorf("query %s: search effort diverges under fusion: private (%d, %d), fused (%d, %d)",
				queries[i].ID, pres[i].exp, pres[i].evals, fres[i].exp, fres[i].evals)
		}
	}

	st := fused.neo.FusionStats()
	if !st.Enabled {
		t.Fatal("fused rig reports fusion disabled")
	}
	if st.Submissions == 0 || st.Rows == 0 {
		t.Errorf("fused searches never reached the scheduler: %+v", st)
	}
	if off := private.neo.FusionStats(); off.Enabled || off.Submissions != 0 {
		t.Errorf("private rig reports fusion activity: %+v", off)
	}
}

// TestFusedScorerBitEqualityUnderContention hammers one snapshot's scheduler
// with concurrent BestFirst and Greedy searches and checks each against the
// same search driven by a private snapshot scorer: fused scores must be
// bit-identical no matter how the submissions interleave and fuse.
func TestFusedScorerBitEqualityUnderContention(t *testing.T) {
	rig := fusedRig(t)
	queries := rig.wl.Queries[:6]
	if err := rig.neo.Bootstrap(queries, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	ns := rig.neo.snap.Load()
	if ns.sched == nil {
		t.Fatal("fused rig published a snapshot without a scheduler")
	}
	opts := search.Options{Catalog: rig.feat.Catalog, MaxExpansions: rig.neo.Config.SearchExpansions}

	// Every (query, algorithm) pair runs as its own goroutine, so BestFirst
	// and Greedy searches interleave their submissions on one scheduler.
	type job struct {
		kind string
		qEnc []float64
		run  func(search.BatchScorer) (*search.Result, error)
	}
	var jobs []job
	for _, q := range queries {
		q := q
		enc := rig.neo.Featurizer.EncodeQuery(q)
		jobs = append(jobs,
			job{kind: "bestfirst " + q.ID, qEnc: enc, run: func(s search.BatchScorer) (*search.Result, error) {
				return search.BestFirst(q, s, opts)
			}},
			job{kind: "greedy " + q.ID, qEnc: enc, run: func(s search.BatchScorer) (*search.Result, error) {
				return search.Greedy(q, s, opts)
			}})
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			fused := &netScorer{backend: ns.sched, feat: rig.feat, qEnc: j.qEnc}
			private := &netScorer{backend: ns.net, feat: rig.feat, qEnc: j.qEnc}
			fres, err := j.run(fused)
			if err != nil {
				t.Errorf("%s fused: %v", j.kind, err)
				return
			}
			pres, err := j.run(private)
			if err != nil {
				t.Errorf("%s private: %v", j.kind, err)
				return
			}
			if fres.Plan.Signature() != pres.Plan.Signature() {
				t.Errorf("%s: fused plan %s != private plan %s", j.kind, fres.Plan.Signature(), pres.Plan.Signature())
			}
			if fres.Score != pres.Score {
				t.Errorf("%s: fused score %v != private score %v (must be bit-identical)", j.kind, fres.Score, pres.Score)
			}
			if fres.Expansions != pres.Expansions || fres.Evaluations != pres.Evaluations {
				t.Errorf("%s: fused effort (%d, %d) != private (%d, %d)", j.kind,
					fres.Expansions, fres.Evaluations, pres.Expansions, pres.Evaluations)
			}
		}(j)
	}
	wg.Wait()

	if st := rig.neo.FusionStats(); st.FusedBatches == 0 {
		// 12 concurrent searches over one scheduler make fusion overwhelmingly
		// likely, but it is timing-dependent; log rather than fail so the
		// bit-equality contract (the point of this test) stays deterministic.
		t.Logf("no fused batches formed this run (timing): %+v", st)
	}
}

// TestFusedSnapshotSwapMidFlight retrains (swapping snapshot + scheduler)
// while concurrent searches are in flight: every search must finish against
// the weights it pinned, no fused pass may straddle the swap, and the run
// must be race-clean (CI repeats it under -race).
func TestFusedSnapshotSwapMidFlight(t *testing.T) {
	rig := fusedRig(t)
	queries := rig.wl.Queries[:6]
	if err := rig.neo.Bootstrap(queries, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				p, res, err := rig.neo.Optimize(q)
				if err != nil {
					errs <- err
					return
				}
				if p == nil || !p.IsComplete() || math.IsNaN(res.Score) || math.IsInf(res.Score, 0) {
					errs <- fmt.Errorf("malformed result for %s under snapshot swaps: plan %v score %v", q.ID, p, res.Score)
					return
				}
			}
		}(g)
	}
	for swap := 0; swap < 3; swap++ {
		time.Sleep(10 * time.Millisecond)
		rig.neo.Retrain()
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if v := rig.neo.NetVersion(); v < 4 { // bootstrap publishes 2 (Retrain in Bootstrap + Explore-less rig publishes once) — at minimum the 3 explicit swaps landed
		t.Errorf("expected at least 4 snapshot versions after 3 retrains, got %d", v)
	}
	st := rig.neo.FusionStats()
	if st.Submissions == 0 {
		t.Errorf("no submissions reached the schedulers across the swaps: %+v", st)
	}
	if st.Batches > st.Submissions {
		t.Errorf("more passes than submissions — counters corrupted: %+v", st)
	}
}

// TestFusedSchedulerDrainedOnSwap pins the drain contract directly: after a
// swap the superseded scheduler still answers (directly, against its own old
// weights) while the new snapshot carries a fresh scheduler.
func TestFusedSchedulerDrainedOnSwap(t *testing.T) {
	rig := fusedRig(t)
	if err := rig.neo.Bootstrap(rig.wl.Queries[:4], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	oldNS := rig.neo.snap.Load()
	q := rig.wl.Queries[0]
	rig.neo.Retrain()
	newNS := rig.neo.snap.Load()
	if newNS == oldNS || newNS.sched == oldNS.sched {
		t.Fatal("snapshot swap did not replace the scheduler")
	}
	// The old scheduler is drained: scoring through it must still produce
	// the old snapshot's numbers, bit for bit — never the new weights'.
	p, _, err := rig.neo.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	qEnc := rig.neo.Featurizer.EncodeQuery(q)
	forests := [][]*treeconv.Tree{rig.feat.EncodePlan(p)}
	got := oldNS.sched.PredictBatch([][]float64{qEnc}, forests)
	want := oldNS.net.PredictBatch([][]float64{qEnc}, forests)
	if got[0] != want[0] {
		t.Errorf("drained scheduler score %v != old snapshot score %v", got[0], want[0])
	}
	if stale := newNS.net.PredictBatch([][]float64{qEnc}, forests); stale[0] == want[0] {
		t.Logf("old and new snapshots score identically (training may have been a no-op); drain check is vacuous this run")
	}
}

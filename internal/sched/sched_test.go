package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neo/internal/treeconv"
)

// fakeBackend scores each row independently and deterministically (query sum
// scaled, plus the forest's node count), mimicking the row-independence the
// real batch kernels guarantee. It also records the row count of every pass
// it executes.
type fakeBackend struct {
	mu      sync.Mutex
	batches []int
	calls   atomic.Int64
}

func (f *fakeBackend) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	f.calls.Add(1)
	f.mu.Lock()
	f.batches = append(f.batches, len(queries))
	f.mu.Unlock()
	out := make([]float64, len(queries))
	for i, q := range queries {
		sum := 0.0
		for _, v := range q {
			sum += v
		}
		nodes := 0
		for _, t := range forests[i] {
			nodes += t.NumNodes()
		}
		out[i] = sum*10 + float64(nodes)
	}
	return out
}

func (f *fakeBackend) recorded() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...)
}

// randomSubmission builds a deterministic pseudo-random (queries, forests)
// batch of the given size.
func randomSubmission(rng *rand.Rand, rows int) ([][]float64, [][]*treeconv.Tree) {
	queries := make([][]float64, rows)
	forests := make([][]*treeconv.Tree, rows)
	for i := 0; i < rows; i++ {
		q := make([]float64, 4)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
		leafA := treeconv.NewLeaf([]float64{rng.Float64()})
		leafB := treeconv.NewLeaf([]float64{rng.Float64()})
		forests[i] = []*treeconv.Tree{treeconv.NewNode([]float64{rng.Float64()}, leafA, leafB)}
	}
	return queries, forests
}

// TestFusedMatchesDirect hammers one scheduler from many goroutines and
// checks every submission's scores are bit-identical to a private backend
// call with the same rows — the scatter must preserve submission order
// exactly, no matter how submissions were fused.
func TestFusedMatchesDirect(t *testing.T) {
	backend := &fakeBackend{}
	direct := &fakeBackend{}
	s := New(backend, Options{MaxBatch: 16, Linger: 100 * time.Microsecond})

	const goroutines = 8
	const iters = 50
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < iters; i++ {
				queries, forests := randomSubmission(rng, 1+rng.Intn(8))
				got := s.PredictBatch(queries, forests)
				want := direct.PredictBatch(queries, forests)
				if len(got) != len(want) {
					errs <- fmt.Errorf("goroutine %d iter %d: %d scores for %d rows", g, i, len(got), len(want))
					return
				}
				for r := range want {
					if got[r] != want[r] {
						errs <- fmt.Errorf("goroutine %d iter %d row %d: fused %v != direct %v", g, i, r, got[r], want[r])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.Counters().Stats()
	if st.Submissions != goroutines*iters {
		t.Errorf("submissions = %d, want %d", st.Submissions, goroutines*iters)
	}
	if st.Batches == 0 || st.Batches > st.Submissions {
		t.Errorf("implausible batch count %d for %d submissions", st.Batches, st.Submissions)
	}
	if st.Batches > 0 && st.AvgFusedSize <= 0 {
		t.Errorf("avg fused size should be positive, got %v", st.AvgFusedSize)
	}
}

// TestLoneSubmissionSkipsLinger: with nobody else in flight there is nothing
// to fuse with, so a submission must return immediately — not after the
// linger deadline. The deliberately enormous linger turns a regression into a
// hang-scale slowdown this test catches by wall clock.
func TestLoneSubmissionSkipsLinger(t *testing.T) {
	backend := &fakeBackend{}
	s := New(backend, Options{MaxBatch: 64, Linger: 5 * time.Second})
	rng := rand.New(rand.NewSource(7))
	queries, forests := randomSubmission(rng, 3)
	start := time.Now()
	out := s.PredictBatch(queries, forests)
	elapsed := time.Since(start)
	if len(out) != 3 {
		t.Fatalf("got %d scores, want 3", len(out))
	}
	if elapsed > time.Second {
		t.Fatalf("lone submission took %v; it must not wait for the 5s linger", elapsed)
	}
}

// TestConcurrentSubmissionsBoundedByLinger: under concurrency a submission
// waits at most about the linger deadline before its batch runs, even when
// the fused batch never fills — the linger is a deadline, not a precondition.
func TestConcurrentSubmissionsBoundedByLinger(t *testing.T) {
	backend := &fakeBackend{}
	const linger = 50 * time.Millisecond
	s := New(backend, Options{MaxBatch: 1 << 20, Linger: linger})

	const goroutines = 4
	var ready, wg sync.WaitGroup
	ready.Add(goroutines)
	gate := make(chan struct{})
	elapsed := make([]time.Duration, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			queries, forests := randomSubmission(rng, 2)
			ready.Done()
			<-gate
			start := time.Now()
			s.PredictBatch(queries, forests)
			elapsed[g] = time.Since(start)
		}(g)
	}
	ready.Wait()
	close(gate)
	wg.Wait()
	for g, e := range elapsed {
		// Generous slack for slow CI: the point is "about one linger", not
		// "forever" (a huge MaxBatch must not stall submissions).
		if e > linger+2*time.Second {
			t.Errorf("goroutine %d waited %v, want <= ~%v", g, e, linger)
		}
	}
}

// TestMaxBatchTriggersImmediateFlush: a submission that fills the batch must
// run without waiting for the linger.
func TestMaxBatchTriggersImmediateFlush(t *testing.T) {
	backend := &fakeBackend{}
	s := New(backend, Options{MaxBatch: 4, Linger: 5 * time.Second})
	rng := rand.New(rand.NewSource(11))
	queries, forests := randomSubmission(rng, 4)
	start := time.Now()
	s.PredictBatch(queries, forests)
	if e := time.Since(start); e > time.Second {
		t.Fatalf("batch-filling submission took %v; must flush immediately", e)
	}
	if got := backend.recorded(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("backend saw batches %v, want one pass of 4 rows", got)
	}
}

// TestCloseDrainsAndFallsBack: Close must flush pending work against the old
// backend, and later submissions must still be answered (directly, unfused).
func TestCloseDrainsAndFallsBack(t *testing.T) {
	backend := &fakeBackend{}
	direct := &fakeBackend{}
	s := New(backend, Options{MaxBatch: 64, Linger: time.Millisecond})

	var wg sync.WaitGroup
	const goroutines = 6
	results := make([][]float64, goroutines)
	wants := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 500))
			queries, forests := randomSubmission(rng, 2)
			results[g] = s.PredictBatch(queries, forests)
			wants[g] = direct.PredictBatch(queries, forests)
		}(g)
	}
	s.Close()
	wg.Wait()
	for g := range results {
		for r := range wants[g] {
			if results[g][r] != wants[g][r] {
				t.Errorf("goroutine %d row %d: %v != %v across Close", g, r, results[g][r], wants[g][r])
			}
		}
	}

	// Post-close submissions bypass fusion but still score correctly.
	rng := rand.New(rand.NewSource(999))
	queries, forests := randomSubmission(rng, 3)
	got := s.PredictBatch(queries, forests)
	want := direct.PredictBatch(queries, forests)
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("post-close row %d: %v != %v", r, got[r], want[r])
		}
	}
	s.Close() // idempotent
}

// TestEmptySubmission returns nil without touching the backend.
func TestEmptySubmission(t *testing.T) {
	backend := &fakeBackend{}
	s := New(backend, Options{})
	if out := s.PredictBatch(nil, nil); out != nil {
		t.Fatalf("empty submission returned %v", out)
	}
	if backend.calls.Load() != 0 {
		t.Fatalf("empty submission reached the backend")
	}
}

// TestSharedCountersAcrossSchedulers: a successor scheduler created with the
// same Counters keeps the statistics monotonic across a swap.
func TestSharedCountersAcrossSchedulers(t *testing.T) {
	counters := &Counters{}
	backend := &fakeBackend{}
	rng := rand.New(rand.NewSource(5))

	s1 := New(backend, Options{Counters: counters})
	q, f := randomSubmission(rng, 2)
	s1.PredictBatch(q, f)
	s1.Close()

	s2 := New(backend, Options{Counters: counters})
	q, f = randomSubmission(rng, 3)
	s2.PredictBatch(q, f)
	s2.Close()

	st := counters.Stats()
	if st.Submissions != 2 || st.Rows != 5 {
		t.Errorf("stats across swap = %+v, want 2 submissions / 5 rows", st)
	}
}

// Package sched implements the cross-request inference scheduler: a
// micro-batching layer that accepts batched-scoring submissions from many
// concurrent goroutines and coalesces their work against one immutable set
// of value-network weights. PR 1 amortised inference *within* a search by
// scoring all children of an expansion in one PredictBatch call; under
// concurrent serving every search still pays its own private forward passes,
// so serving N clients costs N independent pass streams over the same
// weights. The scheduler is the serving-scale analogue of the paper's GPU
// batching (Section 4.2 / 6.3).
//
// Fusion (max-batch-size, max-linger policy): submissions that arrive close
// together in time are fused into one shared forward pass. A submission runs
// immediately once the fused batch reaches MaxBatch rows, or after the Linger
// deadline otherwise. The linger is paid only when it can pay off: the
// scheduler lingers only if another submission was observed in flight within
// the last companionWindow, so a search running alone never waits and an
// idle server's fusion tax is zero — while on a busy server the linger's
// sleep is exactly what lets the other searches reach their own submission
// points and pile on.
//
// Per-caller results are scattered back in submission order, and the batch
// kernels compute every row independently in a fixed order, so every search
// remains bit-identical to running against the raw network no matter how its
// submissions were fused. Identical searches racing each other are not this
// layer's problem: core's snapshot-pinned plan cache collapses them into one
// search before any row is encoded.
//
// Lifecycle: a Scheduler is pinned to one immutable backend (a value-network
// snapshot). When a retraining round publishes new weights, the owner
// creates a fresh Scheduler for the new snapshot and Closes the old one —
// Close flushes the pending batch against the old backend and turns every
// later submission into a direct (unfused) backend call, so scores from
// different weight sets can never share one fused pass, and searches pinned
// to the old snapshot drain without blocking the swap.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/treeconv"
)

// Backend is the shared forward pass submissions are fused into.
// *valuenet.Snapshot (and *valuenet.Network) satisfy it; it must be safe for
// concurrent use, immutable for the scheduler's lifetime, and must compute
// each row independently of its batch neighbours (which the repo's batch
// kernels guarantee — see ARCHITECTURE.md).
type Backend interface {
	PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64
}

// DefaultMaxBatch caps the rows of one fused forward pass when Options
// leaves MaxBatch zero. 64 comfortably holds several expansion-sized
// submissions while keeping the pass within the batch sizes the kernels
// were tuned at.
const DefaultMaxBatch = 64

// DefaultLinger bounds how long a submission waits for companions when
// Options leaves Linger zero: long enough for concurrent searches to pile
// on, far below any request latency budget.
const DefaultLinger = 200 * time.Microsecond

// companionWindow is how long the memory of "another submission was in
// flight" lasts. Within it, a leader lingers for companions; past it, the
// scheduler assumes it is serving a lone search and flushes immediately.
// Generous relative to the linger so that bursty concurrency on a single
// core — where overlap is only observable at preemption points — still
// sustains fusion between bursts.
const companionWindow = 10 * time.Millisecond

// Options tunes a Scheduler.
type Options struct {
	// MaxBatch is the row cap of one fused forward pass; a submission that
	// fills the batch runs immediately. Zero selects DefaultMaxBatch. A
	// single submission larger than MaxBatch still runs in one pass —
	// submissions are never split.
	MaxBatch int
	// Linger is the longest a submission waits to be fused before the
	// pending batch runs anyway. Zero selects DefaultLinger.
	Linger time.Duration
	// Counters, when non-nil, aggregates statistics across this scheduler's
	// lifetime — and, because the owner passes the same Counters to every
	// successor scheduler, across snapshot swaps too.
	Counters *Counters
}

// Counters aggregates fusion statistics. All methods are safe for concurrent
// use; one Counters instance is typically shared by the whole chain of
// schedulers a Neo creates across snapshot swaps, so /stats counters are
// monotonic over the process lifetime.
type Counters struct {
	batches     atomic.Uint64 // shared forward passes executed
	fused       atomic.Uint64 // passes that carried >= 2 submissions
	passSubs    atomic.Uint64 // submissions that rode an executed pass
	submissions atomic.Uint64
	rows        atomic.Uint64
}

// Stats is a point-in-time view of a Counters, shaped for /stats JSON.
type Stats struct {
	// Enabled reports whether fused scoring is configured at all (set by the
	// owner; a zero Counters reports false).
	Enabled bool `json:"enabled"`
	// Batches counts shared forward passes executed through schedulers.
	Batches uint64 `json:"batches"`
	// FusedBatches counts passes that fused two or more submissions.
	FusedBatches uint64 `json:"fused_batches"`
	// Submissions counts ScoreBatch-level submissions accepted.
	Submissions uint64 `json:"submissions"`
	// Rows counts individual plans submitted for scoring.
	Rows uint64 `json:"rows"`
	// CacheHits is always zero: the row-score memo it counted is gone. The
	// field stays until the end-to-end benchmark stops reading it
	// (sched.dedup_share; see ROADMAP).
	CacheHits uint64 `json:"cache_hits"`
	// AvgFusedSize is the mean number of submissions per executed pass.
	AvgFusedSize float64 `json:"avg_fused_size"`
}

// Stats returns the current counter values.
func (c *Counters) Stats() Stats {
	s := Stats{
		Batches:      c.batches.Load(),
		FusedBatches: c.fused.Load(),
		Submissions:  c.submissions.Load(),
		Rows:         c.rows.Load(),
	}
	if s.Batches > 0 {
		s.AvgFusedSize = float64(c.passSubs.Load()) / float64(s.Batches)
	}
	return s
}

// submission is one caller's ScoreBatch waiting to be fused. The caller
// blocks on done; the flusher writes out before closing done, so the channel
// close publishes the results.
type submission struct {
	queries [][]float64
	forests [][]*treeconv.Tree
	out     []float64
	taken   bool // owned by Scheduler.mu: set once the submission left pending
	done    chan struct{}
}

// Scheduler coalesces concurrent PredictBatch submissions against one fixed
// backend. Safe for concurrent use. It runs no background goroutine: the
// caller that fills the batch — or whose linger deadline fires first —
// executes the fused pass on behalf of everyone in it, so an abandoned
// Scheduler costs nothing and needs no finalisation beyond Close.
type Scheduler struct {
	backend  Backend
	maxBatch int
	linger   time.Duration
	counters *Counters

	// active counts goroutines currently inside PredictBatch (including the
	// one executing the backend pass); lastCompanion is the UnixNano of the
	// last moment two of them overlapped. Together they drive the
	// linger-only-when-it-can-pay-off policy.
	active        atomic.Int64
	lastCompanion atomic.Int64

	mu          sync.Mutex
	closed      bool          // guarded by mu
	pending     []*submission // guarded by mu
	pendingRows int           // guarded by mu
}

// New creates a scheduler over a fixed backend.
func New(backend Backend, opts Options) *Scheduler {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.Linger <= 0 {
		opts.Linger = DefaultLinger
	}
	if opts.Counters == nil {
		opts.Counters = &Counters{}
	}
	return &Scheduler{
		backend:  backend,
		maxBatch: opts.MaxBatch,
		linger:   opts.Linger,
		counters: opts.Counters,
	}
}

// Counters returns the scheduler's (possibly shared) statistics counters.
func (s *Scheduler) Counters() *Counters { return s.counters }

// PredictBatch submits one batch of encoded (query, forest) rows and blocks
// until its scores are available — fused with whatever other submissions
// were in flight. It has the exact signature and semantics of the
// backend's PredictBatch — same scores, bit for bit — so callers treat a
// Scheduler as a drop-in predictor. The returned slice is owned by the
// caller.
func (s *Scheduler) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	rows := len(queries)
	if rows == 0 {
		return nil
	}
	if s.active.Add(1) > 1 {
		s.lastCompanion.Store(time.Now().UnixNano())
	}
	defer s.active.Add(-1)
	s.counters.submissions.Add(1)
	s.counters.rows.Add(uint64(rows))

	sub := &submission{queries: queries, forests: forests, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Drained scheduler (its snapshot was swapped away): run the rows
		// directly against the pinned backend, unfused. Same weights, same
		// result.
		s.run([]*submission{sub})
		return sub.out
	}
	s.pending = append(s.pending, sub)
	s.pendingRows += rows
	if len(s.pending) > 1 {
		s.lastCompanion.Store(time.Now().UnixNano())
	}
	if s.pendingRows >= s.maxBatch {
		batch := s.takeLocked()
		s.mu.Unlock()
		s.run(batch)
		return sub.out
	}
	leader := len(s.pending) == 1
	s.mu.Unlock()

	if !leader {
		// A leader is already collecting the batch (or a batch-filler is
		// about to run us); wait for the scatter.
		<-sub.done
		return sub.out
	}

	// First pending submission: this goroutine collects companions, in two
	// stages. Stage one yields the processor a few times: on a saturated
	// machine the runnable concurrent searches advance straight to their own
	// submission points and pile onto the batch with zero idle time (on a
	// single core this cascade is the only way overlap can form at all);
	// the loop stops as soon as a yield round adds no rows. Stage two — only
	// if nothing joined but other submissions were observed in flight within
	// the last companionWindow — waits out the linger deadline for searches
	// mid-expansion on other cores. A search running alone passes through
	// both stages instantly: yields return immediately with no other
	// runnable goroutine, and without recent companionship there is no
	// linger, so an uncontended search never waits.
	joined := false
	prevRows := rows
	for i := 0; i < 8; i++ {
		runtime.Gosched()
		s.mu.Lock()
		if sub.taken {
			s.mu.Unlock()
			<-sub.done
			return sub.out
		}
		cur := s.pendingRows
		s.mu.Unlock()
		if cur == prevRows {
			break
		}
		prevRows = cur
		joined = true
	}
	if !joined && time.Since(time.Unix(0, s.lastCompanion.Load())) <= companionWindow {
		timer := time.NewTimer(s.linger)
		select {
		case <-sub.done:
			timer.Stop()
			return sub.out
		case <-timer.C:
		}
	}
	s.mu.Lock()
	if sub.taken {
		// Someone else (a batch-filler or Close) claimed the pending list
		// between the deadline firing and us reacquiring the lock.
		s.mu.Unlock()
		<-sub.done
		return sub.out
	}
	batch := s.takeLocked()
	s.mu.Unlock()
	s.run(batch)
	return sub.out
}

// takeLocked claims the whole pending list. Callers must hold mu.
func (s *Scheduler) takeLocked() []*submission {
	batch := s.pending
	s.pending = nil
	s.pendingRows = 0
	for _, b := range batch {
		b.taken = true
	}
	return batch
}

// run executes one fused forward pass for the batch and scatters per-caller
// results back in submission order. Each caller's out is a capacity-capped
// window of the pass's score slice, so an append by one caller cannot reach
// another's scores.
func (s *Scheduler) run(batch []*submission) {
	queries, forests := batch[0].queries, batch[0].forests
	if len(batch) > 1 {
		total := 0
		for _, b := range batch {
			total += len(b.queries)
		}
		queries = make([][]float64, 0, total)
		forests = make([][]*treeconv.Tree, 0, total)
		for _, b := range batch {
			queries = append(queries, b.queries...)
			forests = append(forests, b.forests...)
		}
	}
	scores := s.backend.PredictBatch(queries, forests)
	off := 0
	for _, b := range batch {
		end := off + len(b.queries)
		b.out = scores[off:end:end]
		off = end
	}
	s.counters.batches.Add(1)
	s.counters.passSubs.Add(uint64(len(batch)))
	if len(batch) >= 2 {
		s.counters.fused.Add(1)
	}
	for _, b := range batch {
		close(b.done)
	}
}

// Close drains the scheduler: the pending batch (if any) runs against the
// backend, and every subsequent PredictBatch bypasses fusion with a direct
// backend call. Owners call it right after swapping in a successor scheduler
// for a new network snapshot, which is what guarantees one fused pass never
// mixes scores from two weight sets. Safe to call more than once, and safe
// concurrently with in-flight submissions.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	batch := s.takeLocked()
	s.mu.Unlock()
	if len(batch) > 0 {
		s.run(batch)
	}
}

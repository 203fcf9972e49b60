package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/core"
	"neo/pkg/neo"
)

// defaultMaxExperience bounds the experience pool when
// LearnerConfig.MaxExperience is zero — far below the checkpoint loader's
// hard limit, far above what a retraining round can consume (core caps
// training samples anyway).
const defaultMaxExperience = 100_000

// LearnerConfig tunes a Learner; serve.Config and cluster.TrainerConfig carry
// the same four knobs under the same names.
type LearnerConfig struct {
	// CheckpointPath is where checkpoints are written (atomically, via temp
	// file + rename). Empty disables checkpointing.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval started by Start.
	// Zero disables the loop (Close still checkpoints).
	CheckpointEvery time.Duration
	// RetrainEvery starts a background retraining round once N entries have
	// been ingested since the last round was started; zero or negative
	// disables automatic retraining. Rounds never queue: while one is in
	// flight no other starts, and the entries arriving meanwhile count
	// toward the next round.
	RetrainEvery int
	// MaxExperience bounds the experience pool: the oldest entries are
	// dropped beyond it. Zero selects the default (100 000); negative
	// disables trimming.
	MaxExperience int
}

// Learner is the write side of the paper's Figure 1 loop, written once for
// the standalone neo-serve daemon, the replica (which never trains but needs
// the same lifecycle for its forwarder, drain and final checkpoint) and the
// neo-trainer: ingest experience, trim the pool, start a background
// retraining round every RetrainEvery entries unless one is in flight, record
// its loss, run the owner's after-retrain hook, checkpoint periodically and on
// Close, and refuse new background work once closing.
type Learner struct {
	sys          *neo.System
	cfg          LearnerConfig
	afterRetrain func()

	retrains    atomic.Uint64
	checkpoints atomic.Uint64
	retraining  atomic.Bool
	lastLoss    atomic.Uint64 // float64 bits
	pending     atomic.Uint64 // entries ingested since the last round started

	// ckptMu serializes Checkpoint calls (periodic loop vs shutdown).
	ckptMu sync.Mutex

	// lifeMu guards closed and orders wg.Add against Close's wg.Wait: a
	// handler still in flight after the HTTP drain times out must not Add to
	// a WaitGroup another goroutine is Waiting on from zero.
	lifeMu sync.Mutex
	closed bool // guarded by lifeMu

	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once
}

// NewLearner creates the learning loop over sys. afterRetrain (may be nil)
// runs on the retraining goroutine after every round, once the new snapshot
// is serving and before the round is reported finished — the trainer
// publishes and rolls out from it.
func NewLearner(sys *neo.System, cfg LearnerConfig, afterRetrain func()) *Learner {
	if cfg.MaxExperience == 0 {
		cfg.MaxExperience = defaultMaxExperience
	}
	return &Learner{sys: sys, cfg: cfg, afterRetrain: afterRetrain, stop: make(chan struct{})}
}

// Ingest adds executed-plan entries to the experience pool, trims it to
// MaxExperience, and reports whether these entries started a retraining
// round.
func (l *Learner) Ingest(entries ...core.Entry) (triggered bool) {
	exp := l.sys.Neo.Experience
	for _, e := range entries {
		exp.Add(e.Query, e.Plan, e.Latency)
	}
	if l.cfg.MaxExperience > 0 && exp.Len() > l.cfg.MaxExperience {
		exp.Trim(l.cfg.MaxExperience)
	}
	if every := l.cfg.RetrainEvery; every > 0 && len(entries) > 0 &&
		l.pending.Add(uint64(len(entries))) >= uint64(every) {
		return l.triggerRetrain()
	}
	return false
}

// triggerRetrain starts a background retraining round unless one is already
// in flight or shutdown has begun. When the round finishes the new network
// snapshot has been swapped in atomically (with an empty plan cache), the
// final loss is recorded and the after-retrain hook has run.
func (l *Learner) triggerRetrain() bool {
	if !l.retraining.CompareAndSwap(false, true) {
		return false
	}
	l.pending.Store(0)
	started := l.Go(func() {
		loss := l.sys.Neo.Retrain()
		l.lastLoss.Store(math.Float64bits(loss))
		if l.afterRetrain != nil {
			l.afterRetrain()
		}
		l.retrains.Add(1)
		l.retraining.Store(false)
	})
	if !started {
		l.retraining.Store(false)
	}
	return started
}

// Go runs fn on a goroutine Close waits for, and reports false — without
// running it — once shutdown has begun: late work must not race Close's
// wg.Wait or start training the daemon is about to checkpoint away.
func (l *Learner) Go(fn func()) bool {
	l.lifeMu.Lock()
	if l.closed {
		l.lifeMu.Unlock()
		return false
	}
	l.wg.Add(1)
	l.lifeMu.Unlock()
	go func() {
		defer l.wg.Done()
		fn()
	}()
	return true
}

// Stopping is closed when Close begins; goroutines started with Go select on
// it.
func (l *Learner) Stopping() <-chan struct{} { return l.stop }

// Start launches the periodic checkpoint loop (no-op without a path and
// interval).
func (l *Learner) Start() {
	if l.cfg.CheckpointPath == "" || l.cfg.CheckpointEvery <= 0 {
		return
	}
	l.Go(func() {
		ticker := time.NewTicker(l.cfg.CheckpointEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				_ = l.Checkpoint() // best effort; failures surface in /stats staying flat
			case <-l.stop:
				return
			}
		}
	})
}

// Close stops the background loops, waits for everything started with Go —
// including an in-flight retraining round and its hook — then runs drain (may
// be nil; the replica hands over its forwarding queue here) and writes a
// final checkpoint. Safe to call more than once.
func (l *Learner) Close(drain func()) error {
	var err error
	l.once.Do(func() {
		l.lifeMu.Lock()
		l.closed = true
		l.lifeMu.Unlock()
		close(l.stop)
		l.wg.Wait()
		if drain != nil {
			drain()
		}
		err = l.Checkpoint()
	})
	return err
}

// Checkpoint writes the system's learned state to the configured path,
// atomically. It copies the state out between retraining rounds and snapshot
// loads; serving keeps running.
func (l *Learner) Checkpoint() error {
	if l.cfg.CheckpointPath == "" {
		return nil
	}
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	if err := l.sys.SaveCheckpointFile(l.cfg.CheckpointPath); err != nil {
		return err
	}
	l.checkpoints.Add(1)
	return nil
}

// LearnerStats is a point-in-time view of a Learner's counters.
type LearnerStats struct {
	Retrains      uint64
	Retraining    bool
	LastTrainLoss float64
	Checkpoints   uint64
}

// Stats snapshots the counters.
func (l *Learner) Stats() LearnerStats {
	return LearnerStats{
		Retrains:      l.retrains.Load(),
		Retraining:    l.retraining.Load(),
		LastTrainLoss: math.Float64frombits(l.lastLoss.Load()),
		Checkpoints:   l.checkpoints.Load(),
	}
}

package cluster

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/checkpoint"
	"neo/internal/cluster/proto"
	"neo/internal/serve"
	"neo/pkg/neo"
)

const (
	// keepVersions is how many published snapshot versions stay
	// downloadable beyond those a rollout still needs (see publish).
	keepVersions = 4
	// defaultTrainerRetrain is TrainerConfig.RetrainEvery's default.
	defaultTrainerRetrain = 64
)

// TrainerConfig tunes the neo-trainer daemon.
type TrainerConfig struct {
	// CheckpointPath is where the trainer durably checkpoints its learned
	// state (atomically). Empty disables checkpointing; published snapshots
	// are kept in memory either way.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval started by Start.
	CheckpointEvery time.Duration
	// RetrainEvery starts a background retraining round once N experience
	// entries have been ingested since the last round was started (0 means
	// the default 64, negative disables; unlike neo-serve's, where 0
	// disables). Rounds never queue: entries arriving mid-round
	// count toward the next one.
	RetrainEvery int
	// Rollout configures the rollout coordinator driving the replica fleet.
	// Nil disables automatic rollouts: replicas then pull snapshots on their
	// own schedule (or an operator drives /admin/snapshot by hand).
	Rollout *RolloutConfig
}

// RegisterTrainerFlags registers neo-trainer's own flags — the learning
// cadence and the rollout coordinator's knobs — on fs.
// The coordinator is on when rollout.Replicas is non-empty after parsing; the
// caller then points cfg.Rollout at rollout.
func RegisterTrainerFlags(fs *flag.FlagSet, cfg *TrainerConfig, rollout *RolloutConfig) {
	fs.IntVar(&cfg.RetrainEvery, "retrain-every", 64, "retrain after every N ingested experience entries (0 means the default 64, negative disables)")
	fs.Func("replicas", "comma-separated replica base URLs; enables the rollout coordinator (first URL is the canary)", func(list string) error {
		rollout.Replicas = proto.SplitURLs(list)
		return nil
	})
	fs.DurationVar(&rollout.CanaryWait, "canary-wait", 2*time.Second, "longest a canary soaks before the promote/rollback decision")
	fs.Uint64Var(&rollout.MinFeedbacks, "canary-min-feedbacks", 8, "canary-window samples that end the soak early")
	fs.Float64Var(&rollout.Tolerance, "tolerance", 0, "allowed canary quality regression as a fraction of the pre-canary mean latency (0 = default 0.25)")
}

func (c *TrainerConfig) retrainEvery() int {
	if c.RetrainEvery != 0 {
		return c.RetrainEvery
	}
	return defaultTrainerRetrain
}

// Trainer is the learning half of the distributed tier: it owns the
// experience pool and the training loop, ingests replica experience batches
// (POST /experience), and publishes every retrained network as a versioned
// NEOCKPT1 snapshot (GET /snapshot) for replicas to pull. Create one with
// NewTrainer, expose it as an http.Handler, call Start for the background
// loops and Close on shutdown.
//
// Endpoints:
//
//	POST /experience   NEOCKPT1 experience container -> ingestion counters
//	GET  /snapshot     ?version=N (0 or absent = latest) -> NEOCKPT1 snapshot
//	GET  /stats        -> proto.TrainerStats
//	GET  /healthz      -> 200 ok
//	POST /rollout      {version} (0 = latest) -> run a canary rollout now
type Trainer struct {
	sys   *neo.System
	cfg   TrainerConfig
	mux   *http.ServeMux
	start time.Time

	batches  atomic.Uint64
	accepted atomic.Uint64

	// learner is the same learning loop a standalone neo-serve runs; the
	// trainer adds publication and rollout through its after-retrain hook.
	learner *serve.Learner

	// snapMu guards the published-snapshot store.
	snapMu sync.Mutex
	snaps  map[uint64][]byte
	order  []uint64 // publication order, oldest first (eviction)
	latest uint64

	rollout *Coordinator
}

// NewTrainer creates a trainer over an assembled (and typically bootstrapped
// or checkpoint-restored) system and publishes the system's current network
// as the initial snapshot, so replicas can join before the first retrain.
func NewTrainer(sys *neo.System, cfg TrainerConfig) (*Trainer, error) {
	t := &Trainer{sys: sys, cfg: cfg, mux: http.NewServeMux(), start: time.Now(),
		snaps: make(map[uint64][]byte)}
	t.learner = serve.NewLearner(sys, serve.LearnerConfig{
		CheckpointPath:  cfg.CheckpointPath,
		CheckpointEvery: cfg.CheckpointEvery,
		RetrainEvery:    cfg.retrainEvery(),
	}, t.publishAndRollOut)
	if cfg.Rollout != nil {
		t.rollout = NewCoordinator(*cfg.Rollout)
	}
	if err := t.publish(); err != nil {
		return nil, fmt.Errorf("cluster: publishing initial snapshot: %w", err)
	}
	t.mux.HandleFunc("POST /experience", t.handleExperience)
	t.mux.HandleFunc("GET /snapshot", t.handleSnapshot)
	t.mux.HandleFunc("GET /stats", t.handleStats)
	t.mux.HandleFunc("POST /rollout", t.handleRollout)
	t.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return t, nil
}

// ServeHTTP implements http.Handler.
func (t *Trainer) ServeHTTP(w http.ResponseWriter, r *http.Request) { t.mux.ServeHTTP(w, r) }

// Start launches the periodic checkpoint loop (no-op without a path and
// interval).
func (t *Trainer) Start() { t.learner.Start() }

// Close stops the background loops, waits for an in-flight retraining round
// (its publication and rollout included), and writes a final checkpoint.
// Safe to call more than once.
func (t *Trainer) Close() error { return t.learner.Close(nil) }

// Checkpoint durably writes the trainer's learned state to the configured
// path, atomically.
func (t *Trainer) Checkpoint() error { return t.learner.Checkpoint() }

// publish snapshots the system's current learned state into the in-memory
// version store under its network version. Publication is what makes a
// version visible to GET /snapshot and eligible for rollout. Versions older
// than the keepVersions newest are evicted, except the two a rollout needs:
// the version it rolls out and the canary's rollback target. The
// learner keeps publishing while a canary soaks, so without that exception
// a few quick rounds would evict the bytes the rollout is about to load.
func (t *Trainer) publish() error {
	var buf bytes.Buffer
	if err := t.sys.SaveCheckpoint(&buf); err != nil {
		return err
	}
	var rolling, target uint64
	if t.rollout != nil {
		rolling, target = t.rollout.pinned()
	}
	v := t.sys.Neo.Planner.NetVersion()
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if _, exists := t.snaps[v]; !exists {
		t.order = append(t.order, v)
	}
	t.snaps[v] = buf.Bytes()
	t.latest = v
	cut := len(t.order) - keepVersions
	kept := t.order[:0]
	for i, old := range t.order {
		if i < cut && old != rolling && old != target {
			delete(t.snaps, old)
			continue
		}
		kept = append(kept, old)
	}
	t.order = kept
	return nil
}

// Snapshot returns the published container for version (0 = latest).
func (t *Trainer) Snapshot(version uint64) ([]byte, uint64, bool) {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if version == 0 {
		version = t.latest
	}
	payload, ok := t.snaps[version]
	return payload, version, ok
}

// versions returns the published versions, ascending.
func (t *Trainer) versions() []uint64 {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	vs := append([]uint64(nil), t.order...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// handleExperience ingests one replica experience batch: a NEOCKPT1
// container holding an experience section. Damaged containers are rejected
// with 400 (the replica's retry would only fail again); version-skewed ones
// with 409, bodies past proto.MaxExperienceBytes with 413. Ingestion triggers
// a retraining round once RetrainEvery entries have accumulated.
func (t *Trainer) handleExperience(w http.ResponseWriter, r *http.Request) {
	entries, err := checkpoint.LoadExperience(http.MaxBytesReader(w, r.Body, proto.MaxExperienceBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			code = http.StatusRequestEntityTooLarge
		case errors.Is(err, checkpoint.ErrUnsupportedVersion), errors.Is(err, checkpoint.ErrMismatch):
			code = http.StatusConflict
		}
		proto.WriteError(w, code, fmt.Errorf("decoding experience container: %w", err))
		return
	}
	triggered := t.learner.Ingest(entries...)
	t.batches.Add(1)
	t.accepted.Add(uint64(len(entries)))
	proto.WriteJSON(w, proto.ExperienceResponse{
		Accepted:         len(entries),
		Experience:       t.sys.Neo.Learner.Experience.Len(),
		RetrainTriggered: triggered,
		NetVersion:       t.NetVersion(),
	})
}

// publishAndRollOut is the learner's after-retrain hook: the freshly trained
// network is published as a snapshot and, when a coordinator is configured,
// rolled out to the fleet.
func (t *Trainer) publishAndRollOut() {
	if err := t.publish(); err != nil || t.rollout == nil {
		return
	}
	v := t.NetVersion()
	// Roll out in the background: training cadence must not block on canary
	// soak time. Stop-aware so Close waits.
	t.learner.Go(func() { _, _ = t.rollout.Rollout(t.learner.Stopping(), v) })
}

// NetVersion returns the latest published snapshot version.
func (t *Trainer) NetVersion() uint64 {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	return t.latest
}

// handleSnapshot serves a published snapshot container; ?version=N selects
// a historical version (rollback), absent or 0 means latest. The version
// served is echoed in the X-Neo-Net-Version header.
func (t *Trainer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var version uint64
	if raw := r.URL.Query().Get("version"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			proto.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad version %q: %w", raw, err))
			return
		}
		version = v
	}
	payload, v, ok := t.Snapshot(version)
	if !ok {
		proto.WriteError(w, http.StatusNotFound, fmt.Errorf("snapshot version %d is not published (kept: %v)", version, t.versions()))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(proto.HeaderNetVersion, strconv.FormatUint(v, 10))
	_, _ = w.Write(payload)
}

// handleRollout runs a canary rollout of the requested version (0 = latest)
// synchronously and reports the decision.
func (t *Trainer) handleRollout(w http.ResponseWriter, r *http.Request) {
	if t.rollout == nil {
		proto.WriteError(w, http.StatusConflict, fmt.Errorf("no rollout coordinator configured (no replicas)"))
		return
	}
	var req proto.SnapshotRequest
	if r.ContentLength != 0 {
		if code, err := proto.DecodeRequest(w, r, &req); err != nil {
			proto.WriteError(w, code, fmt.Errorf("decoding rollout request: %w", err))
			return
		}
	}
	version := req.Version
	if version == 0 {
		version = t.NetVersion()
	}
	if _, _, ok := t.Snapshot(version); !ok {
		proto.WriteError(w, http.StatusNotFound, fmt.Errorf("snapshot version %d is not published", version))
		return
	}
	promoted, err := t.rollout.Rollout(t.learner.Stopping(), version)
	if err != nil {
		proto.WriteError(w, http.StatusConflict, err)
		return
	}
	status := t.rollout.Status()
	status.Version = version
	if !promoted {
		status.Version = 0
	}
	proto.WriteJSON(w, status)
}

// Stats snapshots the trainer counters.
func (t *Trainer) Stats() proto.TrainerStats {
	ls := t.learner.Stats()
	st := proto.TrainerStats{
		UptimeSeconds: time.Since(t.start).Seconds(),
		NetVersion:    t.NetVersion(),
		Versions:      t.versions(),
		Experience:    t.sys.Neo.Learner.Experience.Len(),
		Batches:       t.batches.Load(),
		Accepted:      t.accepted.Load(),
		Retrains:      ls.Retrains,
		Training:      ls.Retraining,
		LastTrainLoss: ls.LastTrainLoss,
		Checkpoints:   ls.Checkpoints,
	}
	if t.rollout != nil {
		s := t.rollout.Status()
		st.Rollout = &s
	}
	return st
}

func (t *Trainer) handleStats(w http.ResponseWriter, _ *http.Request) {
	proto.WriteJSON(w, t.Stats())
}

// Replica mode: the serving half of the distributed tier. A replica scores
// from a read-only snapshot pulled from a neo-trainer, never trains, and
// forwards the experience its /feedback endpoint collects to the trainer in
// batched NEOCKPT1 containers. Every RPC to the trainer goes through the
// retrying proto.Client, and all failure paths degrade to frozen-snapshot
// serving: a dead trainer costs forwarding (queued, then oldest-dropped),
// never a failed client request.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/checkpoint"
	"neo/internal/cluster/proto"
	"neo/internal/core"
)

// Replica-mode bounds.
const (
	// flushBatch caps the entries per POST /experience container. The
	// forwarder ships queued experience as soon as it arrives, in containers
	// of at most this many entries.
	flushBatch = 64
	// maxQueue bounds the forwarding queue. When the trainer is down long
	// enough to fill it, the oldest entries are dropped — the replica keeps
	// serving; the drops surface in /stats.
	maxQueue = 4096
	// retryDelay is how long the forwarder ignores wake-ups after a failed
	// forward, so a dead trainer is not hammered once per feedback.
	retryDelay = 250 * time.Millisecond
	// drainTimeout bounds the shutdown drain: a replica closing while its
	// trainer is down must not hang forever holding its queued experience.
	drainTimeout = 5 * time.Second
)

// ReplicaConfig switches the daemon into replica mode (Config.Replica).
type ReplicaConfig struct {
	// TrainerURL is the trainer's base URL, e.g. "http://trainer:7790".
	TrainerURL string
	// Client carries the retry/timeout/backoff knobs for every trainer RPC.
	// The zero value picks the proto.Client defaults (3 attempts, 50ms
	// doubling backoff, 10s per-attempt timeout).
	Client proto.Client
}

// replicaState is the Server's replica-mode side car: the forwarding queue,
// the trainer client, and the plan-quality window the rollout coordinator
// reads during a canary.
type replicaState struct {
	cfg    ReplicaConfig
	client *proto.Client

	forwarded     atomic.Uint64
	forwardErrors atomic.Uint64
	dropped       atomic.Uint64

	// kick wakes the forwarder (one slot: a wake-up pending while a POST is
	// in flight covers every entry queued meanwhile).
	kick chan struct{}

	mu      sync.Mutex
	queue   []core.Entry
	sealed  bool // set by drain: later feedback forwards synchronously
	lastErr string

	// Plan-quality window: observed feedback latencies since the last
	// snapshot load. Loading a snapshot archives the running window into the
	// prev fields, so a canary's quality (new weights) is compared against
	// the same replica's quality under the old weights.
	windowCount uint64
	windowSum   float64
	prevCount   uint64
	prevSum     float64
}

func newReplicaState(cfg ReplicaConfig) *replicaState {
	client := cfg.Client
	return &replicaState{cfg: cfg, client: &client, kick: make(chan struct{}, 1)}
}

// enqueue appends an entry to the forwarding queue, dropping the oldest
// entry when the queue is at its bound, and wakes the forwarder. It reports
// the queue depth after the append and whether the queue accepted the entry
// (false once the shutdown drain has sealed it).
func (rs *replicaState) enqueue(e core.Entry) (depth int, queued bool) {
	rs.mu.Lock()
	if rs.sealed {
		rs.mu.Unlock()
		return 0, false
	}
	if len(rs.queue) >= maxQueue {
		over := len(rs.queue) - maxQueue + 1
		rs.queue = rs.queue[over:]
		rs.dropped.Add(uint64(over))
	}
	rs.queue = append(rs.queue, e)
	depth = len(rs.queue)
	rs.mu.Unlock()
	rs.wake()
	return depth, true
}

// wake asks the forwarder for a pass without blocking: if a wake-up is
// already pending, that pass will see this entry too.
func (rs *replicaState) wake() {
	select {
	case rs.kick <- struct{}{}:
	default:
	}
}

// takeBatch pops up to flushBatch entries from the queue head.
func (rs *replicaState) takeBatch() []core.Entry {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := min(flushBatch, len(rs.queue))
	if n == 0 {
		return nil
	}
	batch := make([]core.Entry, n)
	copy(batch, rs.queue)
	rs.queue = rs.queue[:copy(rs.queue, rs.queue[n:])]
	return batch
}

// requeue puts a failed batch back at the queue head so the next pass
// retries it in order, re-applying the queue bound from the front (newest
// entries win, matching enqueue's drop-oldest policy).
func (rs *replicaState) requeue(batch []core.Entry) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.queue = append(batch, rs.queue...)
	if len(rs.queue) > maxQueue {
		over := len(rs.queue) - maxQueue
		rs.queue = rs.queue[over:]
		rs.dropped.Add(uint64(over))
	}
}

// forwardNow ships one batch to the trainer synchronously, recording the
// outcome in the replica counters. It is the single RPC path for the
// forwarder, the shutdown drain and post-drain stragglers.
func (rs *replicaState) forwardNow(ctx context.Context, batch []core.Entry) error {
	if len(batch) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := checkpoint.SaveExperience(&buf, batch); err != nil {
		// Encoding failure is a programming error, not a trainer outage;
		// surface it in /stats rather than retrying forever.
		rs.recordForwardError(err)
		rs.dropped.Add(uint64(len(batch)))
		return err
	}
	var resp proto.ExperienceResponse
	if err := rs.client.PostBytes(ctx, rs.cfg.TrainerURL+"/experience", buf.Bytes(), &resp); err != nil {
		rs.recordForwardError(err)
		return err
	}
	rs.forwarded.Add(uint64(len(batch)))
	rs.mu.Lock()
	rs.lastErr = ""
	rs.mu.Unlock()
	return nil
}

func (rs *replicaState) recordForwardError(err error) {
	rs.forwardErrors.Add(1)
	rs.mu.Lock()
	rs.lastErr = err.Error()
	rs.mu.Unlock()
}

// forwardLoop is the replica's background forwarder. Each wake-up (see
// enqueue) drains the queue in flushBatch-sized containers until it is
// empty; feedback accepted while a POST is in flight rides in the next
// container, and a replica never has more than one POST in flight. When the
// trainer fails, the batch is requeued and the forwarder sleeps retryDelay
// before retrying, ignoring wake-ups meanwhile — the degradation ramp for a
// dead trainer is queue → drop-oldest, never request failures.
func (rs *replicaState) forwardLoop(stop <-chan struct{}) {
	for {
		select {
		case <-rs.kick:
		case <-stop:
			return
		}
		if rs.forwardQueued(stop) {
			continue
		}
		retry := time.NewTimer(retryDelay)
		select {
		case <-retry.C:
			rs.wake()
		case <-stop:
			retry.Stop()
			return
		}
	}
}

// forwardQueued ships the queue to the trainer batch by batch, stopping
// early once stop is closed (the drain takes over). It reports false when a
// forward failed; the failed batch is back at the queue head. A batch the
// trainer refuses as such — a damaged container (400) or one over
// proto.MaxExperienceBytes (413) — would be refused on every retry, so it is
// counted dropped instead, and the entries behind it go on; a version skew
// (409), which a trainer upgrade cures, is retried like an outage.
func (rs *replicaState) forwardQueued(stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return true
		default:
		}
		batch := rs.takeBatch()
		if len(batch) == 0 {
			return true
		}
		if err := rs.forwardNow(context.Background(), batch); err != nil {
			var se *proto.StatusError
			if !errors.As(err, &se) || se.Code != http.StatusBadRequest && se.Code != http.StatusRequestEntityTooLarge {
				rs.requeue(batch)
				return false
			}
			rs.dropped.Add(uint64(len(batch)))
		}
	}
}

// drain seals the queue and makes a final bounded attempt to hand every
// queued entry to the trainer. Called by the Learner's Close after the
// forwarder loop has stopped; entries that still cannot be delivered are counted dropped.
func (rs *replicaState) drain() {
	rs.mu.Lock()
	rs.sealed = true
	rest := rs.queue
	rs.queue = nil
	rs.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	for len(rest) > 0 {
		batch := rest[:min(flushBatch, len(rest))]
		if err := rs.forwardNow(ctx, batch); err != nil {
			rs.dropped.Add(uint64(len(rest)))
			return
		}
		rest = rest[len(batch):]
	}
}

// clusterStats snapshots the replica-side counters for /stats.
func (rs *replicaState) clusterStats(netVersion uint64) proto.ClusterStats {
	rs.mu.Lock()
	depth := len(rs.queue)
	lastErr := rs.lastErr
	q := proto.QualityStats{
		WindowFeedbacks:     rs.windowCount,
		PrevWindowFeedbacks: rs.prevCount,
	}
	if rs.windowCount > 0 {
		q.WindowMeanLatencyMS = rs.windowSum / float64(rs.windowCount)
	}
	if rs.prevCount > 0 {
		q.PrevWindowMeanMS = rs.prevSum / float64(rs.prevCount)
	}
	rs.mu.Unlock()
	return proto.ClusterStats{
		Role:             "replica",
		Trainer:          rs.cfg.TrainerURL,
		SnapshotVersion:  netVersion,
		Queued:           depth,
		Forwarded:        rs.forwarded.Load(),
		Dropped:          rs.dropped.Load(),
		ForwardErrors:    rs.forwardErrors.Load(),
		LastForwardError: lastErr,
		Quality:          q,
	}
}

// recordLatency feeds one observed feedback latency into the quality window.
func (rs *replicaState) recordLatency(ms float64) {
	rs.mu.Lock()
	rs.windowCount++
	rs.windowSum += ms
	rs.mu.Unlock()
}

// archiveWindow rolls the running quality window into the prev fields and
// starts a fresh one. Called right after a snapshot load publishes, so the
// new window holds the latencies reported under the new weights — give or
// take a feedback already past its version check when the load landed.
func (rs *replicaState) archiveWindow() {
	rs.mu.Lock()
	rs.prevCount, rs.prevSum = rs.windowCount, rs.windowSum
	rs.windowCount, rs.windowSum = 0, 0
	rs.mu.Unlock()
}

// SyncSnapshot pulls the trainer's current snapshot (or the given version;
// zero means latest) and loads it, replacing the replica's weights, plan
// cache and snapshot version in one pointer store: requests in flight finish
// on the snapshot they started with, nothing waits, and a failed download or
// decode changes nothing. It is called at replica startup to join the fleet
// at the published version, and by POST /admin/snapshot when the rollout
// coordinator canaries or promotes a version. Returns the snapshot version
// now being served. Standalone servers return an error.
func (s *Server) SyncSnapshot(ctx context.Context, version uint64) (uint64, error) {
	if s.repl == nil {
		return 0, fmt.Errorf("serve: not a replica: no trainer to sync from")
	}
	url := s.repl.cfg.TrainerURL + "/snapshot"
	if version > 0 {
		url = fmt.Sprintf("%s?version=%d", url, version)
	}
	payload, _, err := s.repl.client.GetBytes(ctx, url)
	if err != nil {
		return 0, fmt.Errorf("serve: fetching snapshot: %w", err)
	}
	if err := s.sys.LoadCheckpoint(bytes.NewReader(payload)); err != nil {
		return 0, fmt.Errorf("serve: loading snapshot: %w", err)
	}
	s.repl.archiveWindow()
	return s.sys.Neo.Planner.NetVersion(), nil
}

// handleAdminSnapshot is POST /admin/snapshot (replica mode only): fetch a
// published snapshot from the trainer and serve from it. The rollout
// coordinator drives it — canary on one replica, promote on the rest.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	var req proto.SnapshotRequest
	if r.ContentLength != 0 {
		if code, err := proto.DecodeRequest(w, r, &req); err != nil {
			proto.WriteError(w, code, fmt.Errorf("decoding snapshot request: %w", err))
			return
		}
	}
	version, err := s.SyncSnapshot(r.Context(), req.Version)
	if err != nil {
		// The trainer is unreachable or served a damaged container (502), or
		// it runs another configuration than this replica (409, retrying
		// cannot help); either way the replica keeps its current snapshot —
		// degraded, not down.
		code := http.StatusBadGateway
		if errors.Is(err, checkpoint.ErrMismatch) {
			code = http.StatusConflict
		}
		proto.WriteError(w, code, err)
		return
	}
	proto.WriteJSON(w, proto.SnapshotResponse{NetVersion: version})
}

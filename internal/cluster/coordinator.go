package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"neo/internal/cluster/proto"
)

// Coordinator defaults; see RolloutConfig.
const (
	defaultCanaryWait   = 2 * time.Second
	defaultMinFeedbacks = 8
	defaultTolerance    = 0.25
)

// RolloutConfig tunes the rollout coordinator.
type RolloutConfig struct {
	// Replicas are the fleet's base URLs. The first entry is the canary.
	Replicas []string
	// Tolerance is the allowed plan-quality regression before a canary is
	// rolled back: the canary window's mean feedback latency may exceed the
	// pre-canary window's mean by this fraction (default 0.25). A negative
	// tolerance demands improvement — useful to force a rollback in tests.
	Tolerance float64
	// CanaryWait bounds the canary soak: how long the coordinator waits for
	// the canary to accumulate MinFeedbacks quality samples before deciding
	// (default 2s). Expiring without enough samples promotes — no traffic is
	// no evidence of regression (fail-open; see OPERATIONS.md).
	CanaryWait time.Duration
	// MinFeedbacks is the canary-window sample size that ends the soak early
	// (default 8).
	MinFeedbacks uint64
	// Client carries the retry/timeout/backoff knobs for replica RPCs.
	Client proto.Client
}

func (c *RolloutConfig) canaryWait() time.Duration {
	if c.CanaryWait > 0 {
		return c.CanaryWait
	}
	return defaultCanaryWait
}

func (c *RolloutConfig) minFeedbacks() uint64 {
	if c.MinFeedbacks > 0 {
		return c.MinFeedbacks
	}
	return defaultMinFeedbacks
}

func (c *RolloutConfig) tolerance() float64 {
	if c.Tolerance != 0 {
		return c.Tolerance
	}
	return defaultTolerance
}

// Coordinator rolls published snapshots out to a replica fleet: canary the
// version on one replica, let it soak under live traffic, compare the
// canary's plan-quality window against its pre-canary window, then either
// promote the version to every replica or roll the canary back and bar the
// version. One rollout runs at a time; a version that was rolled back is
// never re-canaried.
type Coordinator struct {
	cfg    RolloutConfig
	client *proto.Client

	mu      sync.Mutex
	phase   string // "idle", "canary", "promote"
	version uint64
	canary  string
	// base is the rollback target: the version the canary served when the
	// rollout in flight began, and after it the version the fleet settled
	// on. The trainer keeps it and version published (see pinned).
	base       uint64
	promoted   uint64
	promotions uint64
	rollbacks  uint64
	bad        map[uint64]bool
}

// NewCoordinator creates a coordinator over a replica fleet.
func NewCoordinator(cfg RolloutConfig) *Coordinator {
	client := cfg.Client
	return &Coordinator{cfg: cfg, client: &client, phase: "idle", bad: make(map[uint64]bool)}
}

// ErrRolloutBusy reports a rollout attempted while another is in flight.
var ErrRolloutBusy = errors.New("cluster: rollout already in flight")

// Rollout runs the canary state machine for version synchronously and
// reports whether the version was promoted fleet-wide. A false return with a
// nil error is a completed rollback decision, not a failure. stop aborts the
// soak early (trainer shutdown); nil is allowed.
func (c *Coordinator) Rollout(stop <-chan struct{}, version uint64) (promoted bool, err error) {
	if len(c.cfg.Replicas) == 0 {
		return false, fmt.Errorf("cluster: no replicas configured")
	}
	canary := c.cfg.Replicas[0]
	c.mu.Lock()
	if c.phase != "idle" {
		p, v := c.phase, c.version
		c.mu.Unlock()
		return false, fmt.Errorf("%w (%s of version %d)", ErrRolloutBusy, p, v)
	}
	if c.bad[version] {
		c.mu.Unlock()
		return false, fmt.Errorf("cluster: version %d was rolled back and is barred from re-canarying", version)
	}
	c.phase, c.version, c.canary = "canary", version, canary
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.phase, c.version, c.canary = "idle", 0, ""
		c.mu.Unlock()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if stop != nil {
		go func() {
			select {
			case <-stop:
				cancel()
			case <-ctx.Done():
			}
		}()
	}

	// Record the canary's current version first: it is the rollback target,
	// and the version the rest of the fleet keeps serving during the soak.
	var base proto.ReplicaStats
	if err := c.client.GetJSON(ctx, canary+"/stats", &base); err != nil {
		return false, fmt.Errorf("cluster: canary %s unreachable: %w", canary, err)
	}
	c.mu.Lock()
	c.base = base.NetVersion
	c.mu.Unlock()
	if base.NetVersion == version {
		// Already serving it (e.g. a re-run after a partial promotion);
		// skip straight to promoting the rest of the fleet.
		return true, c.promote(ctx, version)
	}

	var loaded proto.SnapshotResponse
	if err := c.client.PostJSON(ctx, canary+"/admin/snapshot", proto.SnapshotRequest{Version: version}, &loaded); err != nil {
		return false, fmt.Errorf("cluster: canary %s refused snapshot %d: %w", canary, version, err)
	}

	quality, sampled := c.soak(ctx, canary)
	if c.regressed(quality, sampled) {
		c.mu.Lock()
		c.bad[version] = true
		c.rollbacks++
		c.mu.Unlock()
		// Roll the canary back to what it was serving. A failed rollback
		// leaves the canary on the bad version — surfaced as an error so the
		// operator (or the next rollout) intervenes.
		var rb proto.SnapshotResponse
		if err := c.client.PostJSON(ctx, canary+"/admin/snapshot", proto.SnapshotRequest{Version: base.NetVersion}, &rb); err != nil {
			return false, fmt.Errorf("cluster: version %d rolled back, but restoring canary %s to version %d failed: %w",
				version, canary, base.NetVersion, err)
		}
		return false, nil
	}
	return true, c.promote(ctx, version)
}

// soak polls the canary's /stats until its quality window holds
// MinFeedbacks samples or CanaryWait expires, returning the last observed
// window.
func (c *Coordinator) soak(ctx context.Context, canary string) (proto.QualityStats, bool) {
	deadline := time.After(c.cfg.canaryWait())
	interval := c.cfg.canaryWait() / 20
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var last proto.QualityStats
	seen := false
	for {
		select {
		case <-ctx.Done():
			return last, seen
		case <-deadline:
			return last, seen
		case <-ticker.C:
			var st proto.ReplicaStats
			if err := c.client.GetJSON(ctx, canary+"/stats", &st); err != nil || st.Cluster == nil {
				continue
			}
			last, seen = st.Cluster.Quality, true
			if last.WindowFeedbacks >= c.cfg.minFeedbacks() {
				return last, true
			}
		}
	}
}

// regressed applies the promotion rule: the canary regressed when both
// windows carry samples and the canary window's mean feedback latency
// exceeds the pre-canary window's mean by more than Tolerance. Missing
// evidence — an unreachable canary /stats, an idle fleet, a fresh replica
// with no pre-canary window — promotes (fail-open): no traffic is no
// evidence of regression, and a frozen fleet is the worse failure mode.
func (c *Coordinator) regressed(q proto.QualityStats, sampled bool) bool {
	if !sampled || q.WindowFeedbacks == 0 || q.PrevWindowFeedbacks == 0 {
		return false
	}
	return q.WindowMeanLatencyMS > q.PrevWindowMeanMS*(1+c.cfg.tolerance())
}

// promote pushes version to every non-canary replica and records the
// promotion. Replicas that fail to load keep serving their current snapshot
// (degraded, not down); their errors are joined and surfaced.
func (c *Coordinator) promote(ctx context.Context, version uint64) error {
	c.mu.Lock()
	c.phase = "promote"
	c.mu.Unlock()
	var errs []error
	for _, replica := range c.cfg.Replicas[1:] {
		var resp proto.SnapshotResponse
		if err := c.client.PostJSON(ctx, replica+"/admin/snapshot", proto.SnapshotRequest{Version: version}, &resp); err != nil {
			errs = append(errs, fmt.Errorf("promoting version %d to %s: %w", version, replica, err))
		}
	}
	c.mu.Lock()
	c.promoted, c.base = version, version
	c.promotions++
	c.mu.Unlock()
	return errors.Join(errs...)
}

// pinned reports the versions the trainer must not evict: the one being
// rolled out (zero when idle) and the rollback target.
func (c *Coordinator) pinned() (version, base uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version, c.base
}

// Status snapshots the rollout state for /stats.
func (c *Coordinator) Status() proto.RolloutStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	bad := make([]uint64, 0, len(c.bad))
	for v := range c.bad {
		bad = append(bad, v)
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return proto.RolloutStatus{
		Phase:       c.phase,
		Version:     c.version,
		Canary:      c.canary,
		Promoted:    c.promoted,
		Promotions:  c.promotions,
		Rollbacks:   c.rollbacks,
		BadVersions: bad,
	}
}

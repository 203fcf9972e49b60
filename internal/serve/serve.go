// Package serve implements the neo-serve daemon: an HTTP front end over a
// trained pkg/neo System that serves plans from the value-network snapshot
// and plan cache. It runs in two modes.
//
// Standalone (Config.Replica nil) is the original online-learning daemon:
// /feedback latencies land in the local experience pool, the value network
// retrains in the background every N feedbacks (publishing new weights, and
// with them an empty plan cache, in one atomic snapshot swap), and the learned
// state is checkpointed periodically and on graceful shutdown — so a warm
// restart serves bit-identical plans.
//
// Replica (Config.Replica set) is the serving half of the distributed tier:
// the daemon scores from a read-only snapshot it pulls from a neo-trainer,
// never trains, and forwards /feedback experience to the trainer in batched,
// CRC-checked containers with retry/timeout/backoff — a dead trainer
// degrades the replica to frozen-snapshot serving, never to failed requests.
// Snapshot loads arrive via POST /admin/snapshot (driven by the trainer's
// rollout coordinator: canary one replica, compare /stats plan quality,
// promote fleet-wide). See OPERATIONS.md for the deployment guide.
//
// Endpoints:
//
//	POST /optimize        {query spec}              -> chosen plan
//	POST /feedback        {query spec, latency_ms}  -> experience/queue status
//	GET  /stats                                     -> serving counters
//	GET  /healthz                                   -> 200 ok
//	POST /admin/snapshot  {version}                 -> load a published snapshot (replica mode)
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"neo/internal/cluster/proto"
	"neo/internal/core"
	"neo/pkg/neo"
)

// Config tunes the daemon.
type Config struct {
	// CheckpointPath is where checkpoints are written (atomically, via temp
	// file + rename). Empty disables checkpointing.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval started by Start.
	// Zero disables the loop (shutdown still checkpoints).
	CheckpointEvery time.Duration
	// RetrainEvery starts a background retraining round once N feedbacks
	// have arrived since the last round was started. Zero disables automatic
	// retraining. Rounds never queue: feedback arriving while a round is in
	// flight counts toward the next one (see LearnerConfig).
	RetrainEvery int
	// MaxExperience bounds the experience pool: when a feedback pushes the
	// pool past the limit, the oldest entries are dropped. This keeps a
	// long-running daemon's memory and checkpoint size bounded (checkpoints
	// refuse to load implausibly large experience sections). Zero selects
	// the default (100 000); negative disables trimming.
	MaxExperience int
	// Replica switches the daemon into replica mode: feedback is forwarded
	// to the configured trainer instead of training locally, and snapshots
	// arrive via /admin/snapshot. RetrainEvery is forced to zero — replicas
	// never train. Nil selects the standalone online-learning mode.
	Replica *ReplicaConfig
}

// Server is the daemon. Create one with New, expose it as an http.Handler,
// call Start for the periodic checkpoint loop and Close on shutdown.
type Server struct {
	sys   *neo.System
	mux   *http.ServeMux
	start time.Time

	optimizes atomic.Uint64
	feedbacks atomic.Uint64

	// learner owns the experience pool's write side, the retraining cadence,
	// checkpointing and the background-goroutine lifecycle.
	learner *Learner

	// repl is the replica-mode state (forwarding queue, trainer client,
	// quality window); nil in standalone mode.
	repl *replicaState
}

// New creates a server over an assembled (and typically bootstrapped or
// checkpoint-restored) system.
func New(sys *neo.System, cfg Config) *Server {
	if cfg.Replica != nil {
		// Replicas never train: their weights come exclusively from trainer
		// snapshots, so local retraining would fork the fleet's model state.
		cfg.RetrainEvery = 0
	}
	s := &Server{sys: sys, mux: http.NewServeMux(), start: time.Now()}
	s.learner = NewLearner(sys, LearnerConfig{
		CheckpointPath:  cfg.CheckpointPath,
		CheckpointEvery: cfg.CheckpointEvery,
		RetrainEvery:    cfg.RetrainEvery,
		MaxExperience:   cfg.MaxExperience,
	}, nil)
	s.mux.HandleFunc("POST /optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if cfg.Replica != nil {
		s.repl = newReplicaState(*cfg.Replica)
		s.mux.HandleFunc("POST /admin/snapshot", s.handleAdminSnapshot)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Start launches the background loops: the periodic checkpoint loop (when a
// path and interval are configured) and, in replica mode, the experience
// forwarder.
func (s *Server) Start() {
	s.learner.Start()
	if s.repl != nil {
		s.learner.Go(func() { s.repl.forwardLoop(s.learner.Stopping()) })
	}
}

// Close stops the background loops, waits for any in-flight retraining
// round, drains a replica's forwarding queue to the trainer, and writes a
// final checkpoint — the graceful-shutdown half of the serve lifecycle. Safe
// to call more than once.
func (s *Server) Close() error {
	var drain func()
	if s.repl != nil {
		// Final flush: queued experience a dying replica holds is the
		// trainer's training signal — hand it over, don't drop it.
		drain = s.repl.drain
	}
	return s.learner.Close(drain)
}

// Checkpoint writes the system's learned state to the configured path,
// atomically. It copies the state out between retraining rounds and snapshot
// loads; serving keeps running.
func (s *Server) Checkpoint() error { return s.learner.Checkpoint() }

var cmpOps = map[string]neo.CmpOp{
	"=": neo.Eq, "==": neo.Eq, "<>": neo.Ne, "!=": neo.Ne,
	"<": neo.Lt, "<=": neo.Le, ">": neo.Gt, ">=": neo.Ge,
	"like": neo.Like,
}

// buildQuery validates the spec against the catalog and converts it.
func (s *Server) buildQuery(spec *proto.QuerySpec) (*neo.Query, error) {
	joins := make([]neo.JoinPredicate, len(spec.Joins))
	for i, j := range spec.Joins {
		lt, lc, err := splitColumnRef(j.Left)
		if err != nil {
			return nil, fmt.Errorf("joins[%d].left: %w", i, err)
		}
		rt, rc, err := splitColumnRef(j.Right)
		if err != nil {
			return nil, fmt.Errorf("joins[%d].right: %w", i, err)
		}
		joins[i] = neo.JoinPredicate{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}
	}
	preds := make([]neo.Predicate, len(spec.Predicates))
	for i, p := range spec.Predicates {
		table, column, err := splitColumnRef(p.Column)
		if err != nil {
			return nil, fmt.Errorf("predicates[%d].column: %w", i, err)
		}
		op, ok := cmpOps[strings.ToLower(p.Op)]
		if !ok {
			return nil, fmt.Errorf("predicates[%d]: unknown op %q", i, p.Op)
		}
		value, err := parseValue(p.Value)
		if err != nil {
			return nil, fmt.Errorf("predicates[%d].value: %w", i, err)
		}
		preds[i] = neo.Predicate{Table: table, Column: column, Op: op, Value: value}
	}
	q := neo.NewQuery(spec.ID, spec.Relations, joins, preds)
	// The internal query ID is always the structural signature: experience,
	// baselines and training's query encodings key on the ID, and client-supplied IDs
	// are not guaranteed unique per structure — two different queries under
	// one reused ID would silently cross-contaminate training targets. The
	// client's ID is echoed back in responses only.
	q.ID = q.Signature()
	if err := q.Validate(s.sys.Catalog); err != nil {
		return nil, err
	}
	return q, nil
}

func splitColumnRef(ref string) (table, column string, err error) {
	parts := strings.SplitN(ref, ".", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", fmt.Errorf("column reference %q is not of the form table.column", ref)
	}
	return parts[0], parts[1], nil
}

func parseValue(raw json.RawMessage) (neo.Value, error) {
	// Unmarshalling JSON null into an int64 or a string succeeds as a no-op;
	// without this check a null literal would be planned as the integer 0.
	if strings.TrimSpace(string(raw)) == "null" {
		return neo.Value{}, fmt.Errorf("value is null; want an integer or a string")
	}
	var i int64
	if err := json.Unmarshal(raw, &i); err == nil {
		return neo.IntValue(i), nil
	}
	var str string
	if err := json.Unmarshal(raw, &str); err == nil {
		return neo.StringValue(str), nil
	}
	return neo.Value{}, fmt.Errorf("value %s is neither an integer nor a string", string(raw))
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var spec proto.QuerySpec
	if code, err := proto.DecodeRequest(w, r, &spec); err != nil {
		proto.WriteError(w, code, fmt.Errorf("decoding query: %w", err))
		return
	}
	q, err := s.buildQuery(&spec)
	if err != nil {
		proto.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// OptimizeCached pins one snapshot for lookup, search and version, so a
	// retraining swap or a replica's snapshot load landing mid-request cannot
	// tear them apart.
	p, res, version, err := s.sys.Neo.OptimizeCached(q)
	if err != nil {
		proto.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.optimizes.Add(1)
	id := spec.ID
	if id == "" {
		id = q.ID
	}
	proto.WriteJSON(w, proto.OptimizeResponse{
		ID:         id,
		Plan:       p.String(),
		SQL:        q.SQL(),
		Score:      res.Score,
		Expansions: res.Expansions,
		NetVersion: version,
	})
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req proto.FeedbackRequest
	if code, err := proto.DecodeRequest(w, r, &req); err != nil {
		proto.WriteError(w, code, fmt.Errorf("decoding feedback: %w", err))
		return
	}
	if req.LatencyMS <= 0 || math.IsNaN(req.LatencyMS) || math.IsInf(req.LatencyMS, 0) {
		proto.WriteError(w, http.StatusBadRequest, fmt.Errorf("latency_ms must be a positive finite number"))
		return
	}
	q, err := s.buildQuery(&req.Query)
	if err != nil {
		proto.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Fast-path rejection for obviously stale feedback: a fresh snapshot
	// starts with an empty plan cache, so running the search first would spend
	// a full expansion budget on a request that gets a 409 anyway. The
	// definitive check against the served plan's version stays below.
	if req.NetVersion != 0 && req.NetVersion != s.sys.Neo.NetVersion() {
		proto.WriteError(w, http.StatusConflict, fmt.Errorf(
			"stale feedback: plan was measured under net version %d but plans are now served from version %d; re-optimize and re-measure",
			req.NetVersion, s.sys.Neo.NetVersion()))
		return
	}
	// Attach the latency to the plan currently served for this query — a
	// plan-cache hit in the common case, so feedback costs no search.
	p, _, version, err := s.sys.Neo.OptimizeCached(q)
	if err != nil {
		proto.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if req.NetVersion != 0 && req.NetVersion != version {
		proto.WriteError(w, http.StatusConflict, fmt.Errorf(
			"stale feedback: plan was measured under net version %d but plans are now served from version %d; re-optimize and re-measure",
			req.NetVersion, version))
		return
	}
	// Route-regret accounting: a measured latency for a fast-path-routed
	// class is compared against the value net's estimate for the full
	// search's plan (a no-op outside auto routing, in both modes below).
	s.sys.Neo.ObserveLatency(q, req.LatencyMS)
	if s.repl != nil {
		// Replica path: the entry goes to the trainer, not a local pool. The
		// quality window feeds the rollout coordinator's canary comparison.
		s.feedbacks.Add(1)
		s.repl.recordLatency(req.LatencyMS)
		entry := core.Entry{Query: q, Plan: p, Latency: req.LatencyMS}
		depth, queued := s.repl.enqueue(entry)
		if !queued {
			// The shutdown drain already ran; forward this straggler directly
			// (best effort), and count it dropped if that fails, rather than
			// silently discarding an accepted request's experience.
			if err := s.repl.forwardNow(r.Context(), []core.Entry{entry}); err != nil {
				s.repl.dropped.Add(1)
			}
		}
		proto.WriteJSON(w, proto.FeedbackResponse{Experience: depth, Queued: true})
		return
	}
	s.feedbacks.Add(1)
	triggered := s.learner.Ingest(core.Entry{Query: q, Plan: p, Latency: req.LatencyMS})
	proto.WriteJSON(w, proto.FeedbackResponse{
		Experience:       s.sys.Neo.Experience.Len(),
		RetrainTriggered: triggered,
	})
}

// Stats is the /stats reply.
type Stats struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	NetVersion    uint64             `json:"net_version"`
	Experience    int                `json:"experience"`
	Optimizes     uint64             `json:"optimizes"`
	Feedbacks     uint64             `json:"feedbacks"`
	Retrains      uint64             `json:"retrains"`
	Retraining    bool               `json:"retraining"`
	LastTrainLoss float64            `json:"last_train_loss"`
	Checkpoints   uint64             `json:"checkpoints"`
	PlanCache     neo.PlanCacheStats `json:"plan_cache"`
	// Snapshot reports the serving snapshot's memory footprint: the float64
	// master weights it was frozen from and the packed float32 panels it
	// scores with, converted once per snapshot publication.
	Snapshot neo.SnapshotInfo `json:"snapshot"`
	// Storage reports the disk backend's buffer-pool counters — hit rate,
	// evictions, bytes read from the heap files. Omitted (nil) when the
	// system runs a simulated engine, which touches no storage.
	Storage *neo.StorageStats `json:"storage,omitempty"`
	// Cluster reports the replica-mode state — forwarding queue, trainer
	// link health, plan-quality window. Omitted (nil) in standalone mode.
	Cluster *proto.ClusterStats `json:"cluster,omitempty"`
	// Routing reports the query router's per-class decision counters,
	// fast-path planning-latency percentiles (µs) and regret accounting.
	// Omitted (nil) when routing is "full" (the default), where every query
	// takes the full search and there is nothing to report.
	Routing *neo.RouteStats `json:"routing,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	proto.WriteJSON(w, s.snapshotStats())
}

func (s *Server) snapshotStats() Stats {
	ls := s.learner.Stats()
	var storagePtr *neo.StorageStats
	if st, ok := s.sys.StorageStats(); ok {
		storagePtr = &st
	}
	var clusterPtr *proto.ClusterStats
	if s.repl != nil {
		cs := s.repl.clusterStats(s.sys.Neo.NetVersion())
		clusterPtr = &cs
	}
	var routingPtr *neo.RouteStats
	if rs := s.sys.RouteStats(); rs.Mode != "full" {
		routingPtr = &rs
	}
	return Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		NetVersion:    s.sys.Neo.NetVersion(),
		Experience:    s.sys.Neo.Experience.Len(),
		Optimizes:     s.optimizes.Load(),
		Feedbacks:     s.feedbacks.Load(),
		Retrains:      ls.Retrains,
		Retraining:    ls.Retraining,
		LastTrainLoss: ls.LastTrainLoss,
		Checkpoints:   ls.Checkpoints,
		PlanCache:     s.sys.PlanCacheStats(),
		Snapshot:      s.sys.SnapshotInfo(),
		Storage:       storagePtr,
		Cluster:       clusterPtr,
		Routing:       routingPtr,
	}
}

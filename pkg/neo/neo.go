package neo

import (
	"fmt"
	"runtime"

	"neo/internal/core"
	"neo/internal/datagen"
	"neo/internal/embedding"
	"neo/internal/engine"
	"neo/internal/executor"
	"neo/internal/expert"
	"neo/internal/feature"
	"neo/internal/nn"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/route"
	"neo/internal/schema"
	"neo/internal/search"
	"neo/internal/stats"
	"neo/internal/storage"
	"neo/internal/valuenet"
	"neo/internal/workload"
)

// Re-exported types: the facade exposes the substrate's types under stable
// names so downstream code only imports this package.
type (
	// Query is a select-project-equijoin-aggregate query.
	Query = query.Query
	// Predicate is a single-table filter.
	Predicate = query.Predicate
	// JoinPredicate is an equi-join predicate.
	JoinPredicate = query.JoinPredicate
	// Plan is a (partial or complete) execution plan.
	Plan = plan.Plan
	// PlanNode is one node of a plan tree.
	PlanNode = plan.Node
	// Catalog describes the database schema.
	Catalog = schema.Catalog
	// Database is the in-memory column store.
	Database = storage.Database
	// Workload is a named set of queries.
	Workload = workload.Workload
	// Engine is a simulated execution engine.
	Engine = engine.Engine
	// EngineProfile holds an engine's cost coefficients.
	EngineProfile = engine.Profile
	// Optimizer is Neo itself (the learned optimizer).
	Optimizer = core.Neo
	// ExpertOptimizer is a classical Selinger-style optimizer.
	ExpertOptimizer = expert.Optimizer
	// Featurizer converts queries and plans into network inputs.
	Featurizer = feature.Featurizer
	// Encoding selects the predicate featurization.
	Encoding = feature.Encoding
	// SearchResult reports the outcome of a plan search.
	SearchResult = search.Result
	// EpisodeStats summarises one training episode.
	EpisodeStats = core.EpisodeStats
	// ValueNetConfig configures the value-network architecture.
	ValueNetConfig = valuenet.Config
	// SnapshotInfo describes the serving snapshot's memory footprint (see
	// System.SnapshotInfo).
	SnapshotInfo = valuenet.SnapshotInfo
	// StorageStats reports the disk backend's buffer-pool counters (see
	// Config.Engine "disk" and System.StorageStats).
	StorageStats = storage.PoolStats
	// RouteStats reports the query router's per-class decision counters,
	// fast-path planning-latency percentiles and regret accounting (see
	// Config.Routing and System.RouteStats).
	RouteStats = route.StatsSnapshot
	// RouteClassStats is one query class's routing counters.
	RouteClassStats = route.ClassStats
	// PlanCacheStats reports the plan cache's hit/miss counters, size and
	// snapshot version (see System.Optimize and System.PlanCacheStats).
	PlanCacheStats = core.PlanCacheStats
)

// Value and comparison-operator re-exports, so callers can build predicates
// without importing internal packages.
type (
	// Value is a single cell / comparison value.
	Value = storage.Value
	// CmpOp is a predicate comparison operator.
	CmpOp = query.CmpOp
)

// Comparison operators.
const (
	Eq   = query.Eq
	Ne   = query.Ne
	Lt   = query.Lt
	Le   = query.Le
	Gt   = query.Gt
	Ge   = query.Ge
	Like = query.Like
)

// IntValue constructs an integer comparison value.
func IntValue(v int64) Value { return storage.IntValue(v) }

// StringValue constructs a string comparison value.
func StringValue(s string) Value { return storage.StringValue(s) }

// Featurization encodings (Section 3.2 / Section 5 of the paper).
const (
	OneHot         = feature.OneHot
	Histogram      = feature.Histogram
	RVector        = feature.RVector
	RVectorNoJoins = feature.RVectorNoJoins
)

// Cost functions (Section 6.4.4).
const (
	WorkloadCost = core.WorkloadCost
	RelativeCost = core.RelativeCost
)

// Config describes the system a caller wants to assemble.
type Config struct {
	// Dataset selects the synthetic database profile: "imdb" (JOB-like,
	// correlated), "tpch" (uniform) or "corp" (skewed dashboard).
	Dataset string
	// Engine selects the execution engine: "postgres", "sqlite", "engine-m"
	// or "engine-o" select a simulated engine (deterministic cost model plus
	// per-profile noise); "disk" selects the disk-backed engine, which
	// materializes the synthetic database into slotted-page heap files,
	// executes learned plans over them through a buffer pool, and feeds
	// measured wall-clock latencies into the learning loop.
	Engine string
	// DataDir is where the "disk" engine keeps its heap files. Empty means a
	// fresh temporary directory; a persistent directory is reused across runs
	// when its heap files match the configured dataset (re-materialized
	// otherwise). Ignored by the simulated engines.
	DataDir string
	// BufferPoolMB sizes the disk engine's buffer pool in MiB (default 16).
	// Ignored by the simulated engines.
	BufferPoolMB int
	// Encoding selects the predicate featurization (default RVector).
	Encoding Encoding
	// Scale multiplies the synthetic data size (default 0.5).
	Scale float64
	// Seed drives every random choice (default 42).
	Seed int64
	// SearchExpansions is the plan-search budget (default 256).
	SearchExpansions int
	// Episodes is the default number of refinement episodes used by Train
	// (default 10).
	Episodes int
	// ValueNet overrides the value-network architecture and optimisation
	// settings (default: a small network structurally identical to the
	// paper's). It is used whole: one with no QueryLayers is replaced by the
	// entire default, so give every field when setting any.
	ValueNet *ValueNetConfig
	// Cost selects the optimisation objective (default WorkloadCost).
	Cost core.CostFunction
	// Routing selects how queries are dispatched between the statistics-free
	// greedy fast path and the full DNN-guided best-first search: "full" (or
	// "", the historical default — every query takes the full search) or
	// "auto" (per-class heuristic bootstrap, refined online from
	// observed-latency regret; see System.RouteStats).
	// Open rejects unknown values.
	Routing string

	// BEGIN benchmark compatibility block. The cross-request fusion scheduler
	// and the choice of scoring precision are deleted, but benchmark/ — which
	// only a benchmark PR may edit — still names these four. Delete the block
	// when it stops (see ROADMAP).

	// FuseScoring is accepted and ignored.
	FuseScoring bool
	// ScorePrecision is accepted and ignored: every snapshot scores in
	// float32.
	ScorePrecision string
}

// FusionStats is always zero.
type FusionStats struct{ Batches, FusedBatches, Submissions, Rows, CacheHits uint64 }

// FusionStats returns the zero value.
func (*System) FusionStats() FusionStats { return FusionStats{} }

// END benchmark compatibility block.

func (c Config) withDefaults() Config {
	if c.Dataset == "" {
		c.Dataset = "imdb"
	}
	if c.Engine == "" {
		c.Engine = "postgres"
	}
	if c.Encoding == "" {
		c.Encoding = RVector
	}
	if c.Scale == 0 {
		c.Scale = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.SearchExpansions == 0 {
		c.SearchExpansions = 256
	}
	if c.Episodes == 0 {
		c.Episodes = 10
	}
	return c
}

// System bundles a synthetic database, a simulated engine, the classical
// optimizers and a Neo instance.
type System struct {
	Config     Config
	DB         *Database
	Catalog    *Catalog
	Stats      *stats.Stats
	Engine     *Engine
	Expert     *ExpertOptimizer // PostgreSQL-profile expert (bootstrap source)
	Native     *ExpertOptimizer // the engine's own native optimizer
	Featurizer *Featurizer
	Neo        *Optimizer

	diskDB *storage.DiskDB
}

// StorageStats reports the disk backend's buffer-pool counters (hit rate,
// evictions, bytes read). ok is false when the system runs a simulated
// engine, which touches no storage. Safe for concurrent use.
func (s *System) StorageStats() (st StorageStats, ok bool) {
	if s.diskDB == nil {
		return StorageStats{}, false
	}
	return s.diskDB.Pool.Stats(), true
}

// Close releases the disk backend's file handles. It is a no-op for the
// simulated engines, so callers may defer it unconditionally.
func (s *System) Close() error {
	if s.diskDB == nil {
		return nil
	}
	return s.diskDB.Close()
}

// rowVectorDim is the width of the R-Vector encodings' row vectors: the
// featurizer's block width and the training config both read it, so the
// encodings' sizes are known before any model is trained.
const rowVectorDim = 16

// Open assembles a System according to the configuration: it generates the
// synthetic database, builds statistics, instantiates the engines and
// classical optimizers, and creates an untrained Neo. It trains no row
// vectors: an R-Vector system trains them on first featurization (inside
// Bootstrap, say), unless LoadCheckpoint adopts a checkpoint's first.
func Open(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	profile := datagen.Profile(cfg.Dataset)
	db, err := datagen.Generate(profile, datagen.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("neo: generating dataset: %w", err)
	}
	st, err := stats.Build(db)
	if err != nil {
		return nil, fmt.Errorf("neo: building statistics: %w", err)
	}
	var ddb *storage.DiskDB
	eng, err := engine.ByName(cfg.Engine, db, func() (*storage.DiskDB, error) {
		var err error
		ddb, err = storage.OpenMaterialized(db, cfg.DataDir, cfg.BufferPoolMB)
		return ddb, err
	})
	if err != nil {
		return nil, fmt.Errorf("neo: %w", err)
	}
	pgEngine := engine.New(engine.PostgreSQLProfile(), db)
	pg := expert.NativeOptimizer(pgEngine, st, db.Catalog)
	native := expert.NativeOptimizer(eng, st, db.Catalog)
	feat := feature.ForEncoding(db, st, cfg.Encoding, rowVectorDim, func(joins bool) *embedding.Model {
		return embedding.TrainRows(db, joins, embedding.Config{Dim: rowVectorDim, Seed: cfg.Seed})
	})

	coreCfg := core.DefaultConfig()
	coreCfg.SearchExpansions = cfg.SearchExpansions
	coreCfg.Cost = cfg.Cost
	coreCfg.Seed = cfg.Seed
	if cfg.ValueNet != nil {
		coreCfg.ValueNet = *cfg.ValueNet
	}
	mode, err := route.ParseMode(cfg.Routing)
	if err != nil {
		return nil, fmt.Errorf("neo: %w", err)
	}
	coreCfg.Routing = mode
	n := core.New(eng, feat, coreCfg)

	return &System{
		Config:     cfg,
		DB:         db,
		Catalog:    db.Catalog,
		Stats:      st,
		Engine:     eng,
		Expert:     pg,
		Native:     native,
		Featurizer: feat,
		Neo:        n,
		diskDB:     ddb,
	}, nil
}

// GenerateWorkload creates a workload of n queries appropriate for the
// system's dataset.
func (s *System) GenerateWorkload(n int) (*Workload, error) {
	switch s.Config.Dataset {
	case "tpch":
		return workload.TPCH(s.DB, n, s.Config.Seed)
	case "corp":
		return workload.Corp(s.DB, n, s.Config.Seed)
	default:
		return workload.JOB(s.DB, n, s.Config.Seed)
	}
}

// GenerateUnseenWorkload creates queries semantically distinct from the
// given base workload (the Ext-JOB protocol of Section 6.4.2).
func (s *System) GenerateUnseenWorkload(n int, base *Workload) (*Workload, error) {
	return workload.ExtJOB(s.DB, n, s.Config.Seed, base)
}

// Bootstrap collects demonstration experience from the PostgreSQL-profile
// expert for the given training queries, executes two exploratory random
// plans per query so the value network sees within-query contrast, and
// performs the initial value-network training (Section 2, "Expertise
// Collection" / "Model Building").
func (s *System) Bootstrap(train []*Query) error {
	return s.Neo.BootstrapFromExpert(train, s.Expert)
}

// Train runs the configured number of refinement episodes over the training
// queries (Section 2, "Model Refinement") and returns the per-episode
// statistics.
func (s *System) Train(train []*Query) ([]*EpisodeStats, error) {
	var out []*EpisodeStats
	for ep := 1; ep <= s.Config.Episodes; ep++ {
		st, err := s.Neo.RunEpisode(ep, train)
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// Optimize returns Neo's plan for a query. Results are memoised in the
// serving snapshot's plan cache keyed on the query's structural signature
// (Query.Signature), so repeated queries — even under different IDs — skip
// the search entirely, and concurrent requests for one structure share a
// single search. The cache belongs to the snapshot: a retraining round or a
// checkpoint load publishes new weights with an empty cache. Safe for
// concurrent use.
func (s *System) Optimize(q *Query) (*Plan, *SearchResult, error) {
	p, res, _, err := s.Neo.OptimizeCached(q)
	return p, res, err
}

// PlanCacheStats reports hit/miss counters and the current size of the plan
// cache.
func (s *System) PlanCacheStats() PlanCacheStats { return s.Neo.PlanCacheStats() }

// SnapshotInfo reports the current serving snapshot's memory footprint. Safe
// for concurrent use.
func (s *System) SnapshotInfo() SnapshotInfo { return s.Neo.SnapshotInfo() }

// RouteStats reports the query router's per-class decision counters,
// fast-path planning-latency percentiles and regret accounting (see
// Config.Routing). Route counts track planning decisions: a query answered
// from the plan cache skips routing entirely and is not counted. Safe for
// concurrent use.
func (s *System) RouteStats() RouteStats { return s.Neo.RouteStats() }

// Evaluate optimizes and executes every query over a GOMAXPROCS-wide worker
// pool without adding anything to the experience (held-out evaluation). It
// returns the total and per-query latencies; results are deterministic for
// a fixed seed whatever the pool size.
func (s *System) Evaluate(queries []*Query) (float64, map[string]float64, error) {
	return s.Neo.Evaluate(queries)
}

// PlanResult is the outcome of planning one query of a PlanAll batch.
type PlanResult struct {
	Query  *Query
	Plan   *Plan
	Result *SearchResult
	Err    error
}

// PlanAll plans independent queries concurrently over the shared value
// network on the calling goroutine and nn.Parallel's helper goroutines,
// GOMAXPROCS wide. Every search scores against the current immutable network
// snapshot and carries its own batched-scorer scratch, so planning scales
// across cores without copying the network, and repeated query structures
// are served straight from the plan cache. Results are returned in input
// order; per-query failures are reported in the corresponding PlanResult
// rather than aborting the batch. PlanAll is safe to run while Neo.Retrain
// trains a new network on another goroutine — searches in flight finish
// against the snapshot they started with.
func (s *System) PlanAll(queries []*Query) []PlanResult {
	results := make([]PlanResult, len(queries))
	nn.Parallel(runtime.GOMAXPROCS(0), len(queries), func(i int) {
		q := queries[i]
		p, res, err := s.Optimize(q)
		results[i] = PlanResult{Query: q, Plan: p, Result: res, Err: err}
	})
	return results
}

// Execute runs a complete plan on the system's engine and returns the
// simulated latency in milliseconds.
func (s *System) Execute(p *Plan) (float64, error) {
	lat, _, err := s.Engine.Execute(p)
	return lat, err
}

// NativePlan returns the plan the engine's own (classical) optimizer picks.
func (s *System) NativePlan(q *Query) (*Plan, error) {
	p, _, err := s.Native.Optimize(q)
	return p, err
}

// ExpertPlan returns the PostgreSQL-profile expert's plan.
func (s *System) ExpertPlan(q *Query) (*Plan, error) {
	p, _, err := s.Expert.Optimize(q)
	return p, err
}

// Compare executes Neo's plan and the native optimizer's plan for a query
// and returns both latencies (Neo first).
func (s *System) Compare(q *Query) (neoLatency, nativeLatency float64, err error) {
	np, _, err := s.Optimize(q)
	if err != nil {
		return 0, 0, err
	}
	neoLatency, err = s.Execute(np)
	if err != nil {
		return 0, 0, err
	}
	bp, err := s.NativePlan(q)
	if err != nil {
		return 0, 0, err
	}
	nativeLatency, err = s.Execute(bp)
	return neoLatency, nativeLatency, err
}

// TrueCardinality returns the exact result cardinality of a query, computed
// by executing it.
func (s *System) TrueCardinality(q *Query) (float64, error) {
	return executor.New(s.DB).Count(q)
}

// NewQuery constructs a query from relations, join predicates and column
// predicates (a thin convenience wrapper over the internal constructor).
func NewQuery(id string, relations []string, joins []JoinPredicate, preds []Predicate) *Query {
	return query.New(id, relations, joins, preds)
}

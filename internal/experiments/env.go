// Package experiments implements the harness that regenerates every table
// and figure of the paper's evaluation (Section 6) on the simulated
// substrate. Each experiment returns a Report that prints the same rows or
// series the paper plots; cmd/neo-experiments runs them and prints the
// reports, whose notes compare the measured shapes with the published ones.
package experiments

import (
	"fmt"

	"neo/internal/core"
	"neo/internal/datagen"
	"neo/internal/embedding"
	"neo/internal/engine"
	"neo/internal/expert"
	"neo/internal/feature"
	"neo/internal/query"
	"neo/internal/stats"
	"neo/internal/storage"
	"neo/internal/valuenet"
	"neo/internal/workload"
)

// Config scales the experiment suite. The defaults ("quick" mode) are sized
// so that the full suite runs in minutes on a laptop; Full() uses settings
// closer to the paper's (100 episodes, larger networks) and takes hours.
type Config struct {
	// Scale multiplies the synthetic database sizes.
	Scale float64
	// Seed drives data generation, workload generation and training.
	Seed int64
	// Episodes is the number of training episodes per run (the paper uses 100).
	Episodes int
	// TrainQueries and TestQueries bound the workload sizes.
	TrainQueries int
	TestQueries  int
	// SearchExpansions is the plan-search budget per query.
	SearchExpansions int
	// EmbeddingDim is the row-vector dimensionality.
	EmbeddingDim int
	// Net selects the value-network architecture.
	Net valuenet.Config
	// Engines restricts which engines heavyweight experiments run on
	// (empty means all four).
	Engines []string
	// Workloads restricts which workloads heavyweight experiments run on
	// (empty means all three).
	Workloads []string
	// BufferPoolMB sizes the buffer pool when an experiment selects the
	// "disk" engine (zero means 16 MiB). The other engines ignore it.
	BufferPoolMB int
}

// Quick returns cmd/neo-experiments' default configuration: small enough to
// regenerate every figure in minutes while preserving the shapes, with the
// value network the system serves with.
func Quick() Config {
	return Config{
		Scale:            0.25,
		Seed:             42,
		Episodes:         5,
		TrainQueries:     12,
		TestQueries:      4,
		SearchExpansions: 64,
		EmbeddingDim:     12,
		Net:              valuenet.DefaultConfig(),
	}
}

// Full returns a configuration closer to the paper's experimental scale.
// Running the complete suite with it takes several hours.
func Full() Config {
	cfg := Quick()
	cfg.Scale = 1.0
	cfg.Episodes = 100
	cfg.TrainQueries = 90
	cfg.TestQueries = 23
	cfg.SearchExpansions = 512
	cfg.EmbeddingDim = 100
	cfg.Net = valuenet.PaperConfig()
	return cfg
}

func (c Config) engines() []string {
	if len(c.Engines) > 0 {
		return c.Engines
	}
	return []string{"postgres", "sqlite", "engine-m", "engine-o"}
}

func (c Config) workloads() []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return []string{"job", "tpch", "corp"}
}

// Env holds the shared state (databases, statistics, workloads, embeddings)
// that experiments reuse.
type Env struct {
	Config Config

	DBs       map[string]*storage.Database // by workload name: job, tpch, corp
	Stats     map[string]*stats.Stats
	Workloads map[string]*workload.Workload
	ExtJOB    *workload.Workload
	// Embeddings caches trained row-vector models, keyed by
	// "<workload>/<joins|nojoins>".
	Embeddings map[string]*embedding.Model
	// diskDBs lazily caches the materialized on-disk copy of each
	// workload's database (built the first time an experiment asks for the
	// "disk" engine).
	diskDBs map[string]*storage.DiskDB
}

// NewEnv generates the databases, statistics and workloads for the suite.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.Episodes == 0 {
		cfg = Quick()
	}
	env := &Env{
		Config:     cfg,
		DBs:        make(map[string]*storage.Database),
		Stats:      make(map[string]*stats.Stats),
		Workloads:  make(map[string]*workload.Workload),
		Embeddings: make(map[string]*embedding.Model),
	}
	gen := datagen.Config{Scale: cfg.Scale, Seed: cfg.Seed}

	type spec struct {
		name    string
		profile datagen.Profile
		make    func(db *storage.Database) (*workload.Workload, error)
	}
	total := cfg.TrainQueries + cfg.TestQueries
	specs := []spec{
		{"job", datagen.IMDB, func(db *storage.Database) (*workload.Workload, error) {
			return workload.JOB(db, total, cfg.Seed)
		}},
		{"tpch", datagen.TPCH, func(db *storage.Database) (*workload.Workload, error) {
			return workload.TPCH(db, total, cfg.Seed)
		}},
		{"corp", datagen.Corp, func(db *storage.Database) (*workload.Workload, error) {
			return workload.Corp(db, total, cfg.Seed)
		}},
	}
	for _, s := range specs {
		db, err := datagen.Generate(s.profile, gen)
		if err != nil {
			return nil, fmt.Errorf("experiments: generating %s: %w", s.name, err)
		}
		st, err := stats.Build(db)
		if err != nil {
			return nil, fmt.Errorf("experiments: stats for %s: %w", s.name, err)
		}
		wl, err := s.make(db)
		if err != nil {
			return nil, fmt.Errorf("experiments: workload %s: %w", s.name, err)
		}
		env.DBs[s.name] = db
		env.Stats[s.name] = st
		env.Workloads[s.name] = wl
	}
	ext, err := workload.ExtJOB(env.DBs["job"], max(6, cfg.TestQueries), cfg.Seed, env.Workloads["job"])
	if err != nil {
		return nil, fmt.Errorf("experiments: ext-job: %w", err)
	}
	env.ExtJOB = ext
	return env, nil
}

// Embedding returns (training if necessary) the row-vector model for a
// workload's database, in the "joins" (partially denormalised) or "nojoins"
// variant.
func (e *Env) Embedding(workloadName string, joins bool) *embedding.Model {
	key := workloadName + "/nojoins"
	if joins {
		key = workloadName + "/joins"
	}
	if m, ok := e.Embeddings[key]; ok {
		return m
	}
	m := embedding.TrainRows(e.DBs[workloadName], joins, embedding.Config{Dim: e.Config.EmbeddingDim, Seed: e.Config.Seed})
	e.Embeddings[key] = m
	return m
}

// Featurizer builds a featurizer of the given encoding for a workload (see
// feature.ForEncoding), with the workload's cached row-vector models. It
// sets the model here, on the caller's goroutine: Embedding's cache is not
// safe for concurrent use, and left to first use the featurizer would train
// on an episode's workers.
func (e *Env) Featurizer(workloadName string, enc feature.Encoding) *feature.Featurizer {
	f := feature.ForEncoding(e.DBs[workloadName], e.Stats[workloadName], enc, e.Config.EmbeddingDim, func(joins bool) *embedding.Model {
		return e.Embedding(workloadName, joins)
	})
	f.Embedding()
	return f
}

// Engine builds a fresh engine of the given profile over a workload's
// database. The "disk" engine executes against an on-disk copy of the
// database (materialized lazily, shared across runs of the same workload)
// and feeds measured wall-clock latencies into the loop instead of
// simulated costs.
func (e *Env) Engine(workloadName, engineName string) (*engine.Engine, error) {
	return engine.ByName(engineName, e.DBs[workloadName], func() (*storage.DiskDB, error) {
		return e.DiskDB(workloadName)
	})
}

// DiskDB returns (materializing on first use) the on-disk copy of a
// workload's database, with a buffer pool sized by Config.BufferPoolMB.
func (e *Env) DiskDB(workloadName string) (*storage.DiskDB, error) {
	if ddb, ok := e.diskDBs[workloadName]; ok {
		return ddb, nil
	}
	db := e.DBs[workloadName]
	if db == nil {
		return nil, fmt.Errorf("experiments: unknown workload %q", workloadName)
	}
	ddb, err := storage.OpenMaterialized(db, "", e.Config.BufferPoolMB)
	if err != nil {
		return nil, fmt.Errorf("experiments: disk db for %s: %w", workloadName, err)
	}
	if e.diskDBs == nil {
		e.diskDBs = make(map[string]*storage.DiskDB)
	}
	e.diskDBs[workloadName] = ddb
	return ddb, nil
}

// PGExpert returns a PostgreSQL-profile expert optimizer over a workload's
// database (the demonstration source).
func (e *Env) PGExpert(workloadName string) *expert.Optimizer {
	db := e.DBs[workloadName]
	pgEngine := engine.New(engine.PostgreSQLProfile(), db)
	return expert.NativeOptimizer(pgEngine, e.Stats[workloadName], db.Catalog)
}

// Split returns the train/test split of a workload, bounded by the
// configured sizes.
func (e *Env) Split(workloadName string) (train, test []*query.Query) {
	wl := e.Workloads[workloadName]
	train, test = wl.Split(0.8, e.Config.Seed)
	if len(train) > e.Config.TrainQueries {
		train = train[:e.Config.TrainQueries]
	}
	if len(test) > e.Config.TestQueries {
		test = test[:e.Config.TestQueries]
	}
	return train, test
}

// TrainedRun is the result of training a Neo instance for one
// (engine, workload, encoding) combination.
type TrainedRun struct {
	Neo    *core.Neo
	Engine *engine.Engine
	// Native is the engine's own optimizer.
	Native *expert.Optimizer
	// PG is the PostgreSQL-profile expert (the bootstrap source).
	PG *expert.Optimizer
	// Train and Test are the query splits used.
	Train, Test []*query.Query
	// Curve records the per-episode normalised latency on the test set
	// (relative to the native optimizer).
	Curve []float64
	// NativeTestLatency and PGTestLatency are the baselines on the test set.
	NativeTestLatency float64
	PGTestLatency     float64
}

// neoConfig is the served system's core.DefaultConfig with the experiment's
// scale knobs, objective and seed.
func (e *Env) neoConfig(costFn core.CostFunction) core.Config {
	cfg := core.DefaultConfig()
	cfg.ValueNet = e.Config.Net
	cfg.SearchExpansions = e.Config.SearchExpansions
	cfg.Cost = costFn
	cfg.Seed = e.Config.Seed
	return cfg
}

// TrainNeo runs the served system's training protocol (the bootstrap of
// core.Learner.BootstrapFromExpert, then Episodes of refinement) for one
// engine, workload and encoding, and returns the trained instance along with
// the baselines and the learning curve.
func (e *Env) TrainNeo(workloadName, engineName string, enc feature.Encoding, costFn core.CostFunction, trackCurve bool) (*TrainedRun, error) {
	eng, err := e.Engine(workloadName, engineName)
	if err != nil {
		return nil, err
	}
	pg := e.PGExpert(workloadName)
	native := expert.NativeOptimizer(eng, e.Stats[workloadName], e.DBs[workloadName].Catalog)

	feat := e.Featurizer(workloadName, enc)
	n := core.New(eng, feat, e.neoConfig(costFn))

	train, test := e.Split(workloadName)
	run := &TrainedRun{Neo: n, Engine: eng, Native: native, PG: pg, Train: train, Test: test}

	// Baselines on the test set: the native optimizer's plans and the
	// PostgreSQL expert's plans, both executed on the target engine.
	for _, q := range test {
		np, _, err := native.Optimize(q)
		if err != nil {
			return nil, err
		}
		lat, _, err := eng.Execute(np)
		if err != nil {
			return nil, err
		}
		run.NativeTestLatency += lat
		pp, _, err := pg.Optimize(q)
		if err != nil {
			return nil, err
		}
		plat, _, err := eng.Execute(pp)
		if err != nil {
			return nil, err
		}
		run.PGTestLatency += plat
	}

	if err := n.BootstrapFromExpert(train, pg); err != nil {
		return nil, err
	}

	for ep := 1; ep <= e.Config.Episodes; ep++ {
		if _, err := n.RunEpisode(ep, train); err != nil {
			return nil, err
		}
		if trackCurve {
			total, _, err := n.Evaluate(test)
			if err != nil {
				return nil, err
			}
			run.Curve = append(run.Curve, total/max(run.NativeTestLatency, 1e-9))
		}
	}
	return run, nil
}

// EvaluateRelative evaluates the trained Neo on its test set and returns the
// total latency relative to the native optimizer's plans on the same engine
// (the paper's "relative performance", Figure 9).
func (r *TrainedRun) EvaluateRelative() (float64, error) {
	total, _, err := r.Neo.Learner.Evaluate(r.Test)
	if err != nil {
		return 0, err
	}
	return total / max(r.NativeTestLatency, 1e-9), nil
}

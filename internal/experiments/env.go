// Package experiments implements the harness that regenerates every table
// and figure of the paper's evaluation (Section 6) on the simulated
// substrate. Each experiment returns a Report that prints the same rows or
// series the paper plots; cmd/neo-experiments runs them and prints the
// reports, whose notes compare the measured shapes with the published ones.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"neo/internal/checkpoint"
	"neo/internal/core"
	"neo/internal/datagen"
	"neo/internal/embedding"
	"neo/internal/engine"
	"neo/internal/expert"
	"neo/internal/feature"
	"neo/internal/plan"
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

// Quick returns the configuration used by the benchmark harness: small
// enough to regenerate every figure in minutes while preserving the shapes.
func Quick() Config {
	return Config{
		Scale:            0.25,
		Seed:             42,
		Episodes:         5,
		TrainQueries:     12,
		TestQueries:      4,
		SearchExpansions: 64,
		EmbeddingDim:     12,
		Net: valuenet.Config{
			QueryLayers:  []int{32, 16},
			TreeChannels: []int{32, 32, 16},
			HeadLayers:   []int{16},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         7,
		},
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
	ext, err := workload.ExtJOB(env.DBs["job"], maxInt(6, cfg.TestQueries), cfg.Seed, env.Workloads["job"])
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
	db := e.DBs[workloadName]
	var sentences [][]string
	if joins {
		sentences = embedding.DenormalizedSentences(db, 40)
	} else {
		sentences = embedding.Sentences(db)
	}
	cfg := embedding.Config{
		Dim: e.Config.EmbeddingDim, Epochs: 3, NegativeSamples: 4,
		LearningRate: 0.05, MinCount: 1, Seed: e.Config.Seed,
	}
	m := embedding.Train(sentences, cfg)
	e.Embeddings[key] = m
	return m
}

// embeddingFile maps an Embeddings cache key ("job/joins") to the file name
// its checkpoint is stored under.
func embeddingFile(key string) string {
	return "emb-" + strings.ReplaceAll(key, "/", "-") + ".ckpt"
}

// SaveEmbeddings writes every cached row-vector model to dir as standalone
// embedding checkpoints (one file per workload/variant) and returns how many
// were written. Run the experiments first: models train lazily, so the cache
// holds only the variants the executed experiments actually used.
func (e *Env) SaveEmbeddings(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("experiments: saving embeddings: %w", err)
	}
	keys := make([]string, 0, len(e.Embeddings))
	for key := range e.Embeddings {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		path := filepath.Join(dir, embeddingFile(key))
		if err := checkpoint.SaveEmbeddingFile(path, e.Embeddings[key]); err != nil {
			return 0, fmt.Errorf("experiments: saving embedding %s: %w", key, err)
		}
	}
	return len(keys), nil
}

// LoadEmbeddings pre-populates the embedding cache from checkpoints written
// by SaveEmbeddings, returning how many were loaded. Missing files are fine
// (those variants train lazily as usual); a present-but-unreadable file is
// an error, never a silently retrained model. Cached files are only valid
// for the scale, seed and embedding dimension they were trained with — use a
// separate directory per configuration.
func (e *Env) LoadEmbeddings(dir string) (int, error) {
	loaded := 0
	for workloadName := range e.DBs {
		for _, variant := range []string{"joins", "nojoins"} {
			key := workloadName + "/" + variant
			path := filepath.Join(dir, embeddingFile(key))
			m, err := checkpoint.LoadEmbeddingFile(path)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return loaded, fmt.Errorf("experiments: loading embedding %s: %w", key, err)
			}
			if m.Dim != e.Config.EmbeddingDim {
				return loaded, fmt.Errorf("experiments: cached embedding %s has dim %d, config wants %d",
					key, m.Dim, e.Config.EmbeddingDim)
			}
			e.Embeddings[key] = m
			loaded++
		}
	}
	return loaded, nil
}

// Featurizer builds a featurizer of the given encoding for a workload. All
// featurizers carry the histogram-estimated per-node cardinality feature in
// the plan encoding (the same signal a traditional cost model consumes);
// what varies between encodings is the query-level predicate representation.
func (e *Env) Featurizer(workloadName string, enc feature.Encoding) *feature.Featurizer {
	f := &feature.Featurizer{
		Catalog:     e.DBs[workloadName].Catalog,
		Encoding:    enc,
		Stats:       e.Stats[workloadName],
		Cardinality: &feature.HistogramCardinality{Stats: e.Stats[workloadName]},
	}
	switch enc {
	case feature.RVector:
		f.Embedding = e.Embedding(workloadName, true)
	case feature.RVectorNoJoins:
		f.Embedding = e.Embedding(workloadName, false)
	}
	return f
}

// Engine builds a fresh engine of the given profile over a workload's
// database. The "disk" engine executes against an on-disk copy of the
// database (materialized lazily, shared across runs of the same workload)
// and feeds measured wall-clock latencies into the loop instead of
// simulated costs.
func (e *Env) Engine(workloadName, engineName string) (*engine.Engine, error) {
	prof, err := engine.ProfileByName(engineName)
	if err != nil {
		return nil, err
	}
	if engineName == "disk" {
		ddb, err := e.DiskDB(workloadName)
		if err != nil {
			return nil, err
		}
		return engine.NewWithBackend(prof, engine.NewDiskBackend(ddb)), nil
	}
	return engine.New(prof, e.DBs[workloadName]), nil
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
	dir, err := os.MkdirTemp("", "neo-disk-"+workloadName+"-")
	if err != nil {
		return nil, err
	}
	if err := storage.Materialize(db, dir); err != nil {
		return nil, fmt.Errorf("experiments: materializing %s: %w", workloadName, err)
	}
	mb := e.Config.BufferPoolMB
	if mb <= 0 {
		mb = 16
	}
	ddb, err := storage.OpenDisk(dir, db.Catalog, storage.PagesForMB(mb))
	if err != nil {
		return nil, fmt.Errorf("experiments: opening disk db for %s: %w", workloadName, err)
	}
	if err := ddb.VerifyAgainst(db); err != nil {
		return nil, err
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

// neoConfig builds the core.Config from the experiment configuration.
func (e *Env) neoConfig(costFn core.CostFunction) core.Config {
	return core.Config{
		ValueNet:         e.Config.Net,
		SearchExpansions: e.Config.SearchExpansions,
		TrainEpochs:      16,
		BatchSize:        16,
		MaxTrainSamples:  2500,
		Cost:             costFn,
		Seed:             e.Config.Seed,
	}
}

// TrainNeo runs the full Neo training protocol (bootstrap from the
// PostgreSQL-profile expert, then Episodes of refinement) for one engine,
// workload and encoding, and returns the trained instance along with the
// baselines and the learning curve.
func (e *Env) TrainNeo(workloadName, engineName string, enc feature.Encoding, costFn core.CostFunction, trackCurve bool) (*TrainedRun, error) {
	db := e.DBs[workloadName]
	st := e.Stats[workloadName]
	eng, err := e.Engine(workloadName, engineName)
	if err != nil {
		return nil, err
	}
	pgEngine := engine.New(engine.PostgreSQLProfile(), db)
	pg := expert.NativeOptimizer(pgEngine, st, db.Catalog)
	native := expert.NativeOptimizer(eng, st, db.Catalog)

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

	// Bootstrap from the PostgreSQL expert's plans (Section 6.2 protocol),
	// plus a few exploratory executions per query so the value network sees
	// within-query contrast from the start (see core.Neo.Explore).
	expertFn := func(q *query.Query) (*plan.Plan, error) {
		p, _, err := pg.Optimize(q)
		return p, err
	}
	if err := n.Bootstrap(train, expertFn); err != nil {
		return nil, err
	}
	rp := expert.NewRandomPlanner(db.Catalog, e.Config.Seed+101)
	if err := n.Explore(train, rp.Plan, 2); err != nil {
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
			run.Curve = append(run.Curve, total/maxFloat(run.NativeTestLatency, 1e-9))
		}
	}
	return run, nil
}

// EvaluateRelative evaluates the trained Neo on its test set and returns the
// total latency relative to the native optimizer's plans on the same engine
// (the paper's "relative performance", Figure 9).
func (r *TrainedRun) EvaluateRelative() (float64, error) {
	total, _, err := r.Neo.Evaluate(r.Test)
	if err != nil {
		return 0, err
	}
	return total / maxFloat(r.NativeTestLatency, 1e-9), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

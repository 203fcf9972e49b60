package neo

import (
	"flag"
	"os"
)

// RegisterFlags registers the system-configuration flags shared by cmd/neo,
// neo-serve and neo-trainer on fs, bound to c's fields. Whatever c holds when
// it is called is the flag's default; fields left zero get the command-line
// defaults below, which differ from Open's library defaults only in Scale.
// The fields without a flag here (Episodes, Workers, ValueNet, Cost,
// RoutePolicy) stay as the caller set them.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	if c.Scale == 0 {
		c.Scale = 0.4
	}
	if c.Routing == "" {
		c.Routing = "full"
	}
	*c = c.withDefaults()
	fs.StringVar(&c.Dataset, "dataset", c.Dataset, "synthetic dataset: imdb, tpch or corp")
	fs.StringVar(&c.Engine, "engine", c.Engine, "execution engine: postgres, sqlite, engine-m, engine-o (simulated) or disk (heap files + buffer pool, measured wall-clock latencies)")
	fs.IntVar(&c.BufferPoolMB, "buffer-pool-mb", c.BufferPoolMB, "disk engine buffer-pool size in MiB (0 = default 16)")
	fs.StringVar(&c.DataDir, "data-dir", c.DataDir, "disk engine data directory holding the heap files (empty = fresh temp dir; pre-materialize with neo-datagen -out)")
	fs.StringVar((*string)(&c.Encoding), "encoding", string(c.Encoding), "featurization: 1-hot, histogram, r-vector, r-vector-nojoins")
	fs.Float64Var(&c.Scale, "scale", c.Scale, "synthetic data scale factor")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "random seed")
	fs.IntVar(&c.SearchExpansions, "expansions", c.SearchExpansions, "plan-search expansion budget")
	fs.IntVar(&c.TrainWorkers, "train-workers", c.TrainWorkers, "gradient worker-pool size for value-network training (0 = GOMAXPROCS, negative = serial; trained weights are bit-identical for every worker count)")
	fs.StringVar(&c.Routing, "routing", c.Routing, "query routing: full (every query takes the learned best-first search), fastpath (statistics-free greedy planner for every query) or auto (per-class fast path vs full search, refined online from observed-latency regret; see /stats routing section)")
}

// WarmStart restores learned state from the checkpoint file load, or — when
// load is empty — from checkpoint if that file exists (the file a daemon
// writes on shutdown). It returns the path it restored from, or "" when
// neither applies and the caller has to bootstrap.
func (s *System) WarmStart(load, checkpoint string) (string, error) {
	if load == "" && checkpoint != "" {
		if _, err := os.Stat(checkpoint); err == nil {
			load = checkpoint
		}
	}
	if load == "" {
		return "", nil
	}
	if err := s.LoadCheckpointFile(load); err != nil {
		return "", err
	}
	return load, nil
}

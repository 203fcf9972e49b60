// Command neo is an end-to-end demonstration of the learned optimizer: it
// assembles a synthetic database and an execution engine (simulated cost
// model or disk-backed), bootstraps Neo from the PostgreSQL-profile expert,
// refines it for a few episodes, and prints a per-query comparison against
// the engine's native optimizer.
//
// Usage:
//
//	neo -dataset imdb -engine postgres -episodes 10 -queries 30
//	neo -dataset corp -engine engine-m -encoding histogram
//	neo -dataset imdb -engine disk -buffer-pool-mb 32 -episodes 4
package main

import (
	"flag"
	"fmt"
	"os"

	"neo/pkg/neo"
)

func main() {
	var (
		dataset      = flag.String("dataset", "imdb", "synthetic dataset: imdb, tpch or corp")
		engineName   = flag.String("engine", "postgres", "execution engine: postgres, sqlite, engine-m, engine-o (simulated) or disk (heap files + buffer pool, measured wall-clock latencies)")
		bufferPoolMB = flag.Int("buffer-pool-mb", 0, "disk engine buffer-pool size in MiB (0 = default 16)")
		dataDir      = flag.String("data-dir", "", "disk engine data directory holding the heap files (empty = fresh temp dir; pre-materialize with neo-datagen -out)")
		encoding     = flag.String("encoding", "r-vector", "featurization: 1-hot, histogram, r-vector, r-vector-nojoins")
		episodes     = flag.Int("episodes", 8, "refinement episodes after bootstrapping")
		queries      = flag.Int("queries", 24, "number of workload queries to generate")
		scale        = flag.Float64("scale", 0.4, "synthetic data scale factor")
		seed         = flag.Int64("seed", 42, "random seed")
		workers      = flag.Int("workers", 0, "planning worker-pool size (0 = GOMAXPROCS, negative = serial; results are identical either way unless cardinality-error injection is enabled)")
		trainWorkers = flag.Int("train-workers", 0, "gradient worker-pool size for value-network training (0 = GOMAXPROCS, negative = serial; trained weights are bit-identical for every worker count)")
		load         = flag.String("load", "", "checkpoint file to restore trained state from (skips bootstrapping; the system config must match the one the checkpoint was saved with)")
		save         = flag.String("save", "", "checkpoint file to write the trained state to after refinement")
		fuse         = flag.Bool("fuse-scoring", false, "fuse concurrent plan searches' value-network scoring into shared forward passes (plans and trained weights are bit-identical either way)")
		maxFused     = flag.Int("max-fused-batch", 0, "row cap of one fused forward pass (0 = default 64)")
		fuseLinger   = flag.Duration("fuse-linger", 0, "longest a scoring submission waits to be fused (0 = default 200µs)")
		scorePrec    = flag.String("score-precision", "float64", "numeric format the frozen serving snapshot scores plans with: float64 (exact, default) or float32 (packed tiled-GEMM kernels). Training and checkpoints always stay float64.")
		routing      = flag.String("routing", "full", "query routing: full (every query takes the learned best-first search), fastpath (statistics-free greedy planner for every query) or auto (per-class fast path vs full search, refined online from observed-latency regret)")
	)
	flag.Parse()

	sys, err := neo.Open(neo.Config{
		Dataset:        *dataset,
		Engine:         *engineName,
		DataDir:        *dataDir,
		BufferPoolMB:   *bufferPoolMB,
		Encoding:       neo.Encoding(*encoding),
		Scale:          *scale,
		Seed:           *seed,
		Episodes:       *episodes,
		Workers:        *workers,
		TrainWorkers:   *trainWorkers,
		FuseScoring:    *fuse,
		MaxFusedBatch:  *maxFused,
		FuseLinger:     *fuseLinger,
		ScorePrecision: *scorePrec,
		Routing:        *routing,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset=%s engine=%s encoding=%s rows=%d\n", *dataset, *engineName, *encoding, sys.DB.TotalRows())

	wl, err := sys.GenerateWorkload(*queries)
	if err != nil {
		fatal(err)
	}
	train, test := wl.Split(0.8, *seed)
	fmt.Printf("workload: %d training / %d test queries\n", len(train), len(test))

	if *load != "" {
		fmt.Printf("restoring checkpoint %s ...\n", *load)
		if err := sys.LoadCheckpointFile(*load); err != nil {
			fatal(err)
		}
		fmt.Printf("restored: net version %d, %d experience entries\n",
			sys.Neo.NetVersion(), sys.Neo.Experience.Len())
	} else {
		fmt.Println("bootstrapping from the PostgreSQL-profile expert ...")
		if err := sys.Bootstrap(train); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("refining for %d episodes ...\n", *episodes)
	stats, err := sys.Train(train)
	if err != nil {
		fatal(err)
	}
	for _, s := range stats {
		fmt.Printf("  episode %2d: normalized latency %.3f (1.0 = expert bootstrap)\n", s.Episode, s.NormalizedLatency)
	}
	if *save != "" {
		if err := sys.SaveCheckpointFile(*save); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *save)
	}

	unit := "simulated"
	if *engineName == "disk" {
		unit = "measured"
	}
	fmt.Printf("\nheld-out test queries (latencies in %s ms):\n", unit)
	fmt.Printf("%-14s %12s %12s %9s\n", "query", "neo", "native", "neo/native")
	var neoTotal, nativeTotal float64
	for _, q := range test {
		neoLat, nativeLat, err := sys.Compare(q)
		if err != nil {
			fatal(err)
		}
		neoTotal += neoLat
		nativeTotal += nativeLat
		fmt.Printf("%-14s %12.2f %12.2f %9.2f\n", q.ID, neoLat, nativeLat, neoLat/nativeLat)
	}
	fmt.Printf("%-14s %12.2f %12.2f %9.2f\n", "TOTAL", neoTotal, nativeTotal, neoTotal/nativeTotal)
	if st, ok := sys.StorageStats(); ok {
		fmt.Printf("\nstorage: %s\n", st.String())
	}
	if err := sys.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neo:", err)
	os.Exit(1)
}

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
	var cfg neo.Config
	cfg.RegisterFlags(flag.CommandLine)
	flag.IntVar(&cfg.Episodes, "episodes", 8, "refinement episodes after bootstrapping")
	var (
		queries = flag.Int("queries", 24, "number of workload queries to generate")
		load    = flag.String("load", "", "checkpoint file to restore trained state from (skips bootstrapping; the system config must match the one the checkpoint was saved with)")
		save    = flag.String("save", "", "checkpoint file to write the trained state to after refinement")
	)
	flag.Parse()

	sys, err := neo.Open(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset=%s engine=%s encoding=%s rows=%d\n", cfg.Dataset, cfg.Engine, cfg.Encoding, sys.DB.TotalRows())

	wl, err := sys.GenerateWorkload(*queries)
	if err != nil {
		fatal(err)
	}
	train, test := wl.Split(0.8, cfg.Seed)
	fmt.Printf("workload: %d training / %d test queries\n", len(train), len(test))

	restored, err := sys.WarmStart(*load, "")
	if err != nil {
		fatal(err)
	}
	if restored != "" {
		fmt.Printf("restored %s: net version %d, %d experience entries\n",
			restored, sys.Neo.NetVersion(), sys.Neo.Experience.Len())
	} else {
		fmt.Println("bootstrapping from the PostgreSQL-profile expert ...")
		if err := sys.Bootstrap(train); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("refining for %d episodes ...\n", cfg.Episodes)
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
	if cfg.Engine == "disk" {
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

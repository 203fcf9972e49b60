// Command neo-experiments regenerates the tables and figures of the paper's
// evaluation on the simulated substrate.
//
// Usage:
//
//	neo-experiments -exp fig9              # one experiment, quick settings
//	neo-experiments -exp all -out results.txt
//	neo-experiments -exp fig10 -episodes 20 -engines postgres,sqlite
//	neo-experiments -full                  # paper-scale settings (slow)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"neo/internal/experiments"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment to run ("+strings.Join(experiments.Names(), ", ")+" or 'all')")
		full         = flag.Bool("full", false, "use paper-scale settings (slow)")
		episodes     = flag.Int("episodes", 0, "override the number of training episodes")
		scale        = flag.Float64("scale", 0, "override the synthetic data scale factor")
		seed         = flag.Int64("seed", 0, "override the random seed")
		engines      = flag.String("engines", "", "comma-separated engine subset (postgres,sqlite,engine-m,engine-o,disk)")
		bufferPoolMB = flag.Int("buffer-pool-mb", 0, "disk engine buffer-pool size in MiB (0 = default 16)")
		workloads    = flag.String("workloads", "", "comma-separated workload subset (job,tpch,corp)")
		out          = flag.String("out", "", "write reports to this file as well as stdout")
	)
	flag.Parse()

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	if *episodes > 0 {
		cfg.Episodes = *episodes
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}
	cfg.BufferPoolMB = *bufferPoolMB

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "neo-experiments: scale=%.2f episodes=%d seed=%d\n\n", cfg.Scale, cfg.Episodes, cfg.Seed)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fatal(err)
	}

	if *exp == "all" {
		reports, err := experiments.RunAll(env)
		for _, r := range reports {
			fmt.Fprintln(w, r.String())
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	rep, err := experiments.Run(*exp, env)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, rep.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neo-experiments:", err)
	os.Exit(1)
}

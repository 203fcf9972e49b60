// Command neo-bench runs the repo's performance benchmarks (value-network
// scoring, value-network training, episode evaluation, planning latency,
// serving, disk execution), emits one BENCH_<suite>.json per suite,
// and optionally enforces the benchmark-regression gate against committed
// baselines.
//
// Usage:
//
//	neo-bench                                  # run all suites, write BENCH_*.json to .
//	neo-bench -out results -baseline . -check  # CI: measure, compare, fail on >2x regressions
//	neo-bench -suites train -check -baseline . # one suite only
//
// The gate applies two kinds of checks:
//
//   - baseline comparison: ns/op and allocs/op must not regress by more than
//     -tolerance (default 2x — generous on purpose, so slow shared CI
//     runners fail on real blowups rather than jitter), and
//   - ratio checks, which are hardware-independent: batched scoring and
//     batched training must beat their per-sample counterparts by at least
//     -speedup-floor on the machine the benchmarks actually ran on.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"neo/internal/bench"
)

func main() {
	var (
		out      = flag.String("out", ".", "directory to write BENCH_<suite>.json files to (created if missing)")
		baseline = flag.String("baseline", "", "directory holding committed baseline BENCH_<suite>.json files (empty = skip comparison)")
		check    = flag.Bool("check", false, "enforce the regression gate (exit 1 on regressions or missing baselines)")
		tol      = flag.Float64("tolerance", 2.0, "maximum allowed ns/op and allocs/op regression factor vs the baseline")
		floor    = flag.Float64("speedup-floor", 1.5, "minimum batched-over-per-sample speedup the scoring and training suites must show")
		suites   = flag.String("suites", strings.Join(bench.Names(), ","), "comma-separated suites to run")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var problems []string
	for _, name := range strings.Split(*suites, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fmt.Printf("suite %s: running ...\n", name)
		suite, err := bench.Run(name)
		if err != nil {
			fatal(err)
		}
		for _, r := range suite.Benchmarks {
			fmt.Printf("  %-28s %14.0f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
		}
		path, err := bench.Write(*out, suite)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  wrote %s\n", path)

		problems = append(problems, ratioChecks(suite, *floor)...)
		if *baseline != "" {
			basePath := filepath.Join(*baseline, bench.FileName(name))
			base, err := bench.Load(basePath)
			switch {
			case err == nil:
				for _, p := range bench.Compare(base, suite, *tol) {
					problems = append(problems, "regression vs "+basePath+": "+p)
				}
			case os.IsNotExist(err) && !*check:
				fmt.Printf("  no baseline at %s (skipping comparison)\n", basePath)
			default:
				problems = append(problems, fmt.Sprintf("baseline %s: %v", basePath, err))
			}
		}
	}

	if len(problems) > 0 {
		fmt.Fprintln(os.Stderr, "\nbenchmark gate findings:")
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "  FAIL:", p)
		}
		if *check {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "(informational: run with -check to enforce)")
		return
	}
	fmt.Println("benchmark gate: all checks passed")
}

// ratioPair is one hardware-independent speedup invariant: fast must beat
// slow by at least floor (0 = use the -speedup-floor flag).
type ratioPair struct {
	slow, fast string
	floor      float64
}

// ratioChecks verifies the hardware-independent speedup invariants inside a
// freshly measured suite.
func ratioChecks(s bench.Suite, defaultFloor float64) []string {
	pairs := map[string][]ratioPair{
		"score": {
			{slow: "scoring/sequential", fast: "scoring/batched"},
			// The packed float32 kernels must beat the batched float64 path
			// on the machine the gate runs on.
			{slow: "scoring/batched", fast: "scoring/f32"},
		},
		"train": {{slow: "training/per-sample", fast: "training/batched"}},
		// The routing tentpole's core claim: the statistics-free greedy
		// planner must undercut the full best-first search's median planning
		// latency by >= 50x on the same routed queries. The gap is
		// architectural (no value-network inference, no frontier) and holds
		// on any runner.
		"plan": {{slow: "plan/bestfirst-p50", fast: "plan/fastpath-p50", floor: 50.0}},
		// Single-flight on the snapshot's plan cache: 8 requests over 2
		// structures run 2 searches instead of 8.
		"serve": {
			{slow: "serving/private", fast: "serving/cached"},
			{slow: "serving/private-f32", fast: "serving/cached-f32"},
		},
		// The buffer-pool page-miss penalty carries its own floor: hot hits
		// are in-memory map lookups while cold reads go through pread, so a
		// 2x gap survives any reasonable runner — but the pair must not be
		// held to the batched-scoring default, which measures a different
		// phenomenon. exec/disk-{cold,hot} (whole plans) get baselines only:
		// join compute dominates their page faults at benchmark scale.
		"exec": {{slow: "exec/pool-cold", fast: "exec/pool-hot", floor: 2.0}},
	}[s.Suite]
	var problems []string
	for _, p := range pairs {
		floor := p.floor
		if floor == 0 {
			floor = defaultFloor
		}
		speedup, err := bench.Speedup(s, p.slow, p.fast)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if speedup < floor {
			problems = append(problems, fmt.Sprintf(
				"%s is only %.2fx faster than %s, want >= %.2fx", p.fast, speedup, p.slow, floor))
		} else {
			fmt.Printf("  %s: %.2fx faster than %s (floor %.2fx)\n", p.fast, speedup, p.slow, floor)
		}
	}
	return problems
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neo-bench:", err)
	os.Exit(1)
}

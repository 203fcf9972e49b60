package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the harness reads back: metric
// names, directions and regression bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runSelfcheck answers "do two sets of runs of the same code agree within the
// benchmark's own bounds?": every workload runs untraced twice on seed and
// once on seed+1; for each end-to-end metric it prints the values, how much
// worse the second same-seed run read than the first, and the bound, and it
// fails if any same-seed pair disagrees by more than the bound (in either
// direction: the order of two runs of one binary means nothing). It then runs
// train-episodes traced twice and demands identical counts and quality.
func runSelfcheck(seed int64, seconds float64, outDir string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -selfcheck runs from the repo root: %v\n", err)
		return 2
	}
	status := 0
	fmt.Printf("%-15s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "seed "+fmt.Sprint(seed), "again", "seed "+fmt.Sprint(seed+1), "diff", "bound")
	for _, name := range workloadNames {
		var runs [3]*report
		for i, s := range []int64{seed, seed, seed + 1} {
			rep, err := runChild(name, s, seconds, 0, outDir, os.Stderr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", name, s, err)
				return 1
			}
			runs[i] = rep
		}
		for _, m := range spec.EndToEnd {
			a, b, c := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value, runs[2].Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Min(a, b)
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				status = 1
			}
			fmt.Printf("%-15s %-14s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%%s\n", name, m.Name, a, b, c, 100*diff, 100*m.Bound, verdict)
		}
	}
	// Counts and the quality ratio are pure functions of the seed on
	// train-episodes: two traced runs must agree bit for bit.
	var traced [2]*report
	for i := range traced {
		rep, err := runChild("train-episodes", seed, seconds, 1, outDir, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: train-episodes traced: %v\n", err)
			return 1
		}
		traced[i] = rep
	}
	for _, name := range []string{"quality_ratio", "search.expansions", "search.plans_scored", "search.score_batches"} {
		a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
		verdict := "identical"
		if a != b {
			verdict = "DIFFERENT"
			status = 1
		}
		fmt.Printf("%-15s %-22s %.17g %.17g  %s\n", "train-episodes", name, a, b, verdict)
	}
	return status
}

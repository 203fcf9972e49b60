package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at about 1/20 of the
// benchmark's duration on a tiny system, and holds what it emits against
// BENCHMARK.json: the same metric names and units (no drift either way),
// every output check run, nothing failed. It is what keeps the harness under
// plain `go test ./...`, vet and the linters.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a fleet per workload; skipped in -short mode")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != referenceSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the harness sizes its samples for %d", spec.RunSeconds, referenceSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !equalSets(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the harness runs %v", names, workloadNames)
	}
	declared := func(ms []specMetric) map[string]string {
		out := make(map[string]string, len(ms))
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}

	quality := make(map[string][]float64)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true, true} {
			if name != "train-episodes" && traced && len(quality[name]) > 0 {
				continue // only train-episodes is run a second time, for reproducibility
			}
			o := options{workload: name, seed: 5, seconds: 0.75, trace: traced, outDir: t.TempDir(), sz: tiny}
			start := time.Now()
			rep, correct, err := runOne(o)
			t.Logf("%s traced=%v: %v", name, traced, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !correct || rep.Failed != 0 || rep.Attempted == 0 {
				rep.print(testWriter{t})
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, correct, rep.Attempted, rep.Failed)
			}
			for _, c := range expectedChecks(o) {
				if rep.Checks[c] == 0 {
					t.Errorf("%s traced=%v: output check %q never ran", name, traced, c)
				}
			}
			want := declared(spec.EndToEnd)
			if traced {
				want = declared(spec.PerLayer)
				quality[name] = append(quality[name], rep.Metrics["quality_ratio"].Value)
			}
			for m, unit := range want {
				got, ok := rep.Metrics[m]
				if !ok {
					t.Errorf("%s traced=%v: metric %s of BENCHMARK.json was not emitted", name, traced, m)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s emitted in %q, BENCHMARK.json says %q", name, traced, m, got.Unit, unit)
				}
			}
			for m, v := range rep.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s traced=%v: emitted metric %s is not in BENCHMARK.json", name, traced, m)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, m, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m, v.Value)
				}
			}
		}
	}
	// One seed fixes train-episodes' work and so its result, bit for bit.
	if q := quality["train-episodes"]; len(q) != 2 || q[0] != q[1] || q[0] <= 0 {
		t.Errorf("train-episodes quality_ratio on two passes of one seed: %v", q)
	}
}

func equalSets(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

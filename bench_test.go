// Package repro holds the paper-figure harness: one benchmark per table and
// figure of the paper's evaluation. The experiments themselves live in
// internal/experiments and are indexed by cmd/neo-experiments' -exp flag.
// The system's own timings do not come from here: see ARCHITECTURE.md, "How
// performance is measured".
//
// Run the full harness with:
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its table/figure with laptop-scale settings and
// prints the resulting report; key scalar outcomes are also exposed through
// b.ReportMetric so they appear in the benchmark output.
package repro

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"neo/internal/experiments"
	"neo/internal/valuenet"
)

// benchConfig returns the settings used by the benchmark harness: smaller
// than experiments.Quick so that the full set of figures regenerates in
// minutes.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:            0.2,
		Seed:             42,
		Episodes:         4,
		TrainQueries:     10,
		TestQueries:      5,
		SearchExpansions: 48,
		EmbeddingDim:     10,
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

var (
	envOnce   sync.Once
	sharedEnv *experiments.Env
	envErr    error
)

// benchEnv lazily builds one shared environment (databases, statistics,
// workloads, embeddings) reused by every benchmark.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		sharedEnv, envErr = experiments.NewEnv(benchConfig())
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return sharedEnv
}

// runExperiment executes one experiment with the given engine/workload
// restriction, printing the report and reporting a headline metric.
func runExperiment(b *testing.B, name string, engines, workloads []string) *experiments.Report {
	b.Helper()
	env := benchEnv(b)
	savedEngines, savedWorkloads := env.Config.Engines, env.Config.Workloads
	env.Config.Engines, env.Config.Workloads = engines, workloads
	defer func() { env.Config.Engines, env.Config.Workloads = savedEngines, savedWorkloads }()

	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Run(name, env)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(rep.String())
	return rep
}

// lastColumnMean averages the last numeric column of a report, a convenient
// headline metric (most reports end in a relative-performance column).
func lastColumnMean(rep *experiments.Report) float64 {
	if len(rep.Rows) == 0 {
		return 0
	}
	sum, n := 0.0, 0
	for _, row := range rep.Rows {
		if len(row) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkTable2RowVectorSimilarity regenerates Table 2: row-vector cosine
// similarity vs. true cardinality for correlated keyword/genre pairs.
func BenchmarkTable2RowVectorSimilarity(b *testing.B) {
	rep := runExperiment(b, "table2", nil, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "mean_cardinality")
}

// BenchmarkFigure9OverallPerformance regenerates Figure 9: Neo's relative
// performance vs. each engine's native optimizer on each workload.
func BenchmarkFigure9OverallPerformance(b *testing.B) {
	rep := runExperiment(b, "fig9", nil, nil)
	b.ReportMetric(lastColumnMean(rep), "mean_pg_over_native")
}

// BenchmarkFigure10LearningCurves regenerates Figure 10's learning curves
// (restricted to two engines on JOB to keep the harness fast; pass -full to
// cmd/neo-experiments for the complete grid).
func BenchmarkFigure10LearningCurves(b *testing.B) {
	rep := runExperiment(b, "fig10", []string{"postgres", "engine-m"}, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "mean_pg_over_native")
}

// BenchmarkFigure11TrainingTime regenerates Figure 11: the training cost to
// match the PostgreSQL-plan and native-optimizer milestones.
func BenchmarkFigure11TrainingTime(b *testing.B) {
	runExperiment(b, "fig11", nil, []string{"job"})
}

// BenchmarkFigure12Featurization regenerates Figure 12: the featurization
// ablation (restricted to the postgres engine in the harness).
func BenchmarkFigure12Featurization(b *testing.B) {
	rep := runExperiment(b, "fig12", []string{"postgres"}, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "mean_neo_over_native")
}

// BenchmarkFigure13ExtJOB regenerates Figure 13: generalisation to entirely
// new queries before and after five extra episodes.
func BenchmarkFigure13ExtJOB(b *testing.B) {
	rep := runExperiment(b, "fig13", []string{"postgres"}, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "mean_after_over_native")
}

// BenchmarkFigure14CardinalityRobustness regenerates Figure 14: sensitivity
// of the value network's output to injected cardinality-estimation error.
func BenchmarkFigure14CardinalityRobustness(b *testing.B) {
	rep := runExperiment(b, "fig14", []string{"postgres"}, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "mean_output_shift")
}

// BenchmarkFigure15PerQuery regenerates Figure 15: per-query improvement
// under the workload-cost and relative-cost objectives.
func BenchmarkFigure15PerQuery(b *testing.B) {
	runExperiment(b, "fig15", []string{"postgres"}, []string{"job"})
}

// BenchmarkFigure16SearchTime regenerates Figure 16: plan quality as a
// function of the search budget, grouped by the number of joins.
func BenchmarkFigure16SearchTime(b *testing.B) {
	rep := runExperiment(b, "fig16", []string{"postgres"}, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "mean_latency_over_best")
}

// BenchmarkFigure17RowVectorTraining regenerates Figure 17: row-vector
// training time for the joins / no-joins variants on every dataset.
func BenchmarkFigure17RowVectorTraining(b *testing.B) {
	runExperiment(b, "fig17", nil, nil)
}

// BenchmarkAblationNoDemonstration regenerates the Section 6.3.3 ablation:
// expert bootstrap vs. random bootstrap.
func BenchmarkAblationNoDemonstration(b *testing.B) {
	rep := runExperiment(b, "nodemo", []string{"postgres"}, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "mean_neo_over_native")
}

// BenchmarkAblationSearchVsGreedy compares best-first search against greedy
// plan construction with the same value network.
func BenchmarkAblationSearchVsGreedy(b *testing.B) {
	rep := runExperiment(b, "searchvsgreedy", []string{"postgres"}, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "greedy_over_search")
}

// BenchmarkAblationTreeConvVsFlat compares the tree-structured plan encoding
// against a flattened one.
func BenchmarkAblationTreeConvVsFlat(b *testing.B) {
	rep := runExperiment(b, "treeconvvsflat", []string{"postgres"}, []string{"job"})
	b.ReportMetric(lastColumnMean(rep), "flat_over_tree")
}

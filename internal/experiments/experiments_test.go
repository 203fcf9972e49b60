package experiments

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"neo/internal/core"
	"neo/internal/feature"
	"neo/internal/valuenet"
)

// tiny returns the smallest configuration that still exercises every code
// path; used so the experiment tests run in seconds.
func tiny() Config {
	return Config{
		Scale:            0.15,
		Seed:             42,
		Episodes:         1,
		TrainQueries:     6,
		TestQueries:      2,
		SearchExpansions: 24,
		EmbeddingDim:     6,
		Net: valuenet.Config{
			QueryLayers:  []int{16, 8},
			TreeChannels: []int{8, 8},
			HeadLayers:   []int{8},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         7,
		},
		Engines:   []string{"postgres"},
		Workloads: []string{"job"},
	}
}

func tinyEnv(t testing.TB) *Env {
	t.Helper()
	env, err := NewEnv(tiny())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvBuildsEverything(t *testing.T) {
	cfg := tiny()
	cfg.Workloads = nil // build all three databases
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"job", "tpch", "corp"} {
		if env.DBs[wl] == nil || env.Stats[wl] == nil || env.Workloads[wl] == nil {
			t.Errorf("environment missing pieces for %s", wl)
		}
		if len(env.Workloads[wl].Queries) == 0 {
			t.Errorf("workload %s is empty", wl)
		}
	}
	if env.ExtJOB == nil || len(env.ExtJOB.Queries) == 0 {
		t.Errorf("Ext-JOB workload missing")
	}
	train, test := env.Split("job")
	if len(train) == 0 || len(test) == 0 {
		t.Errorf("split produced empty sides")
	}
	if len(train) > cfg.TrainQueries || len(test) > cfg.TestQueries {
		t.Errorf("split ignores configured bounds")
	}
	// Embeddings are cached.
	m1 := env.Embedding("job", true)
	m2 := env.Embedding("job", true)
	if m1 != m2 {
		t.Errorf("embedding should be cached")
	}
	// Featurizers wire the right dependencies.
	if f := env.Featurizer("job", feature.RVector); f.Embedding() == nil {
		t.Errorf("R-Vector featurizer needs an embedding")
	}
	if f := env.Featurizer("job", feature.Histogram); f.Stats == nil {
		t.Errorf("Histogram featurizer needs stats")
	}
	if _, err := env.Engine("job", "bogus"); err == nil {
		t.Errorf("unknown engine should error")
	}
}

func TestConfigDefaults(t *testing.T) {
	q := Quick()
	if q.Episodes <= 0 || q.Scale <= 0 {
		t.Errorf("Quick config malformed: %+v", q)
	}
	f := Full()
	if f.Episodes <= q.Episodes || f.Scale <= q.Scale {
		t.Errorf("Full config should be larger than Quick")
	}
	if len(q.engines()) != 4 || len(q.workloads()) != 3 {
		t.Errorf("default engine/workload lists wrong")
	}
	// The figures train the served system: TrainNeo's core.Config is
	// core.DefaultConfig but for the scale knobs, the objective and the seed.
	env := tinyEnv(t)
	run, err := env.TrainNeo("job", "postgres", feature.Histogram, core.RelativeCost, false)
	if err != nil {
		t.Fatal(err)
	}
	got := run.Neo.Config
	want := core.DefaultConfig()
	want.ValueNet = env.Config.Net
	want.SearchExpansions = env.Config.SearchExpansions
	want.Cost = core.RelativeCost
	want.Seed = env.Config.Seed
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TrainNeo trains with %+v, want core.DefaultConfig's settings %+v", got, want)
	}
}

func TestTrainNeoProducesBaselinesAndCurve(t *testing.T) {
	env := tinyEnv(t)
	run, err := env.TrainNeo("job", "postgres", feature.Histogram, core.WorkloadCost, true)
	if err != nil {
		t.Fatal(err)
	}
	if run.NativeTestLatency <= 0 || run.PGTestLatency <= 0 {
		t.Errorf("baselines should be positive: %+v", run)
	}
	if len(run.Curve) != env.Config.Episodes {
		t.Errorf("curve length %d != episodes %d", len(run.Curve), env.Config.Episodes)
	}
	rel, err := run.EvaluateRelative()
	if err != nil {
		t.Fatal(err)
	}
	if rel <= 0 {
		t.Errorf("relative performance should be positive, got %f", rel)
	}
}

func TestTable2Report(t *testing.T) {
	env := tinyEnv(t)
	rep, err := Table2(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("Table 2 should have 6 rows, got %d", len(rep.Rows))
	}
	// The love/romance cardinality should exceed the love/horror one (the
	// data-level correlation the paper's Table 2 shows).
	var loveRomance, loveHorror float64
	for _, row := range rep.Rows {
		if row[0] == "love" && row[1] == "romance" {
			loveRomance, _ = strconv.ParseFloat(row[3], 64)
		}
		if row[0] == "love" && row[1] == "horror" {
			loveHorror, _ = strconv.ParseFloat(row[3], 64)
		}
	}
	if loveRomance <= loveHorror {
		t.Errorf("card(love,romance)=%f should exceed card(love,horror)=%f", loveRomance, loveHorror)
	}
	out := rep.String()
	if !strings.Contains(out, "table2") || !strings.Contains(out, "keyword") {
		t.Errorf("report rendering broken:\n%s", out)
	}
}

func TestFigure16And17Reports(t *testing.T) {
	env := tinyEnv(t)
	rep17, err := Figure17(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep17.Rows) != 2*len(env.Config.workloads()) {
		t.Errorf("figure 17 should have joins+nojoins rows per workload, got %d", len(rep17.Rows))
	}
	rep16, err := Figure16(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep16.Rows) == 0 {
		t.Errorf("figure 16 should have rows")
	}
}

// TestFigure14Report: one row per cardinality source, join bucket and
// injected error level (2 and 5 orders of magnitude; the unperturbed outputs
// are the baseline every shift is measured from, not a row), each shift a
// finite standard deviation.
func TestFigure14Report(t *testing.T) {
	rep, err := Figure14(tinyEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("figure 14 should have 2 sources × 2 buckets × 2 error levels = 8 rows, got %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[2] != "2" && row[2] != "5" {
			t.Errorf("%s, %s joins: error level %q, want 2 or 5 orders", row[0], row[1], row[2])
		}
		if shift, err := strconv.ParseFloat(row[3], 64); err != nil || math.IsNaN(shift) || math.IsInf(shift, 0) || shift < 0 {
			t.Errorf("%s, %s joins, %s orders: output shift %q, want a finite value >= 0", row[0], row[1], row[2], row[3])
		}
	}
}

func TestRegistryAndRun(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("expected 13 registered experiments, got %d: %v", len(names), names)
	}
	for _, want := range []string{"table2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "nodemo", "searchvsgreedy", "treeconvvsflat"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing experiment %q", want)
		}
	}
	env := tinyEnv(t)
	if _, err := Run("table2", env); err != nil {
		t.Errorf("Run(table2): %v", err)
	}
	if _, err := Run("does-not-exist", env); err == nil {
		t.Errorf("unknown experiment should error")
	}
}

func TestReportFormatting(t *testing.T) {
	r := &Report{Name: "x", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow(1.23456, "hello")
	r.AddRow(float32(2.5), 7)
	r.AddNote("note %d", 42)
	s := r.String()
	for _, want := range []string{"1.235", "hello", "2.500", "note: note 42", "a", "bb"} {
		if !strings.Contains(s, want) {
			t.Errorf("report output missing %q:\n%s", want, s)
		}
	}
}

func TestHelperFunctions(t *testing.T) {
	if firstAtOrBelow([]float64{2, 1.5, 0.9, 0.8}, 1.0) != 3 {
		t.Errorf("firstAtOrBelow wrong")
	}
	if firstAtOrBelow([]float64{2, 1.5}, 1.0) != -1 {
		t.Errorf("firstAtOrBelow should report not-reached")
	}
	if stddevDiff(nil, nil) != 0 {
		t.Errorf("stddevDiff of empty inputs should be 0")
	}
	if got := stddevDiff([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("identical outputs should have zero shift, got %f", got)
	}
	if got := stddevDiff([]float64{0, 0}, []float64{1, -1}); got <= 0 {
		t.Errorf("different outputs should have positive shift")
	}
}

func TestKeywordGenreQueryValid(t *testing.T) {
	env := tinyEnv(t)
	q := keywordGenreQuery("love", "romance")
	if err := q.Validate(env.DBs["job"].Catalog); err != nil {
		t.Errorf("keywordGenreQuery invalid: %v", err)
	}
}

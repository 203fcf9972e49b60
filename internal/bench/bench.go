// Package bench holds the shared fixtures and runners behind the repo's
// benchmark-regression gate. cmd/neo-bench executes the suites with
// testing.Benchmark, emits one BENCH_<suite>.json per suite (ns/op and
// allocs/op per benchmark), and compares fresh results against the committed
// baselines — so CI fails when a hot path regresses rather than months later
// when someone happens to re-measure. The root *_bench_test.go files expose
// the same measurements through `go test -bench` for interactive use.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"neo/internal/checkpoint"
	"neo/internal/fastpath"
	"neo/internal/route"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/pkg/neo"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Suite is the unit the gate compares: a named set of benchmark results,
// serialised as BENCH_<name>.json.
type Suite struct {
	Suite      string   `json:"suite"`
	Benchmarks []Result `json:"benchmarks"`
}

// Names lists the available suites in run order.
func Names() []string { return []string{"score", "train", "episode", "plan", "serve", "exec"} }

// Run executes one suite by name.
func Run(name string) (Suite, error) {
	switch name {
	case "score":
		return Scoring(), nil
	case "train":
		return Training(), nil
	case "episode":
		return Episode(), nil
	case "plan":
		return Planning(), nil
	case "serve":
		return Serving(), nil
	case "exec":
		return Exec(), nil
	default:
		return Suite{}, fmt.Errorf("bench: unknown suite %q (have %v)", name, Names())
	}
}

// measure runs fn under testing.Benchmark and records it.
func measure(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{Name: name, NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp()}
}

// fixture is a scoring or training workload: a value network plus a batch of
// (query vector, plan forest) pairs with target costs.
type fixture struct {
	net     *valuenet.Network
	queries [][]float64
	forests [][]*treeconv.Tree
	samples []valuenet.Sample
}

const fixturePlanDim = 24

func newFixtureNet(queryDim, trainWorkers int) *valuenet.Network {
	cfg := valuenet.DefaultConfig()
	cfg.TrainWorkers = trainWorkers
	net := valuenet.New(queryDim, fixturePlanDim, cfg)
	net.FitTargetTransform([]float64{10, 100, 1000})
	return net
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// leftDeep builds a left-deep join tree over n relations (2n-1 nodes).
func leftDeep(rng *rand.Rand, n int) *treeconv.Tree {
	if n <= 1 {
		return treeconv.NewLeaf(randVec(rng, fixturePlanDim))
	}
	return treeconv.NewNode(randVec(rng, fixturePlanDim), leftDeep(rng, n-1), treeconv.NewLeaf(randVec(rng, fixturePlanDim)))
}

// add appends one (query, forest) pair with a target cost spanning orders of
// magnitude.
func (f *fixture) add(rng *rand.Rand, query []float64, forest []*treeconv.Tree) {
	f.queries = append(f.queries, query)
	f.forests = append(f.forests, forest)
	f.samples = append(f.samples, valuenet.Sample{Query: query, Plan: forest, Target: math.Exp(rng.Float64() * 8)})
}

// newFixture is the scoring shape, one best-first expansion: batchSize
// complete left-deep plans over 10 relations, all candidates of one query and
// therefore sharing one dense encoding slice (the dedup hot path).
func newFixture(batchSize int) *fixture {
	const queryDim = 32
	rng := rand.New(rand.NewSource(99))
	f := &fixture{net: newFixtureNet(queryDim, 1)}
	query := randVec(rng, queryDim)
	for i := 0; i < batchSize; i++ {
		f.add(rng, query, []*treeconv.Tree{leftDeep(rng, 10)})
	}
	return f
}

// newTrainingFixture is the retraining shape, as measured over the
// benchmark's train-episodes workload (96 000 samples): a shuffled minibatch
// mixes the construction states of many queries, so nearly every sample
// brings its own query encoding (6.9 distinct per 8-sample shard); an
// encoding — an adjacency triangle plus per-column predicate slots, 761 wide
// on the IMDB schema — is 5.0 % non-zero; and a construction state of a query
// over 3–7 relations is a forest of one partial join tree plus the relations
// not joined yet, 7.2 nodes on average.
func newTrainingFixture(batchSize, trainWorkers int) *fixture {
	const queryDim = 761
	rng := rand.New(rand.NewSource(99))
	f := &fixture{net: newFixtureNet(queryDim, trainWorkers)}
	for i := 0; i < batchSize; i++ {
		query := make([]float64, queryDim)
		for j := range query {
			if rng.Intn(20) == 0 {
				query[j] = rng.Float64()
			}
		}
		relations := 3 + i%5
		joined := 1 + (i/5)%relations // relations under the partial join tree
		forest := []*treeconv.Tree{leftDeep(rng, joined)}
		for r := joined; r < relations; r++ {
			forest = append(forest, leftDeep(rng, 1))
		}
		f.add(rng, query, forest)
	}
	return f
}

// Scoring measures batched versus sequential inference at batch 32 (the
// BenchmarkBatchedVsSequentialScoring pair), plus the packed float32
// tiled-GEMM snapshot kernels over the same batch.
func Scoring() Suite {
	const batchSize = 32
	f := newFixture(batchSize)
	s32 := f.net.SnapshotPrecision(valuenet.PrecisionFloat32)
	return Suite{Suite: "score", Benchmarks: []Result{
		measure("scoring/sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batchSize; j++ {
					f.net.Predict(f.queries[j], f.forests[j])
				}
			}
		}),
		measure("scoring/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.net.PredictBatch(f.queries, f.forests)
			}
		}),
		measure("scoring/f32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s32.PredictBatch(f.queries, f.forests)
			}
		}),
	}}
}

// Training measures one gradient step over a 32-sample minibatch: the
// per-sample tape path versus the shared batched forward+backward pass,
// serially and sharded over four gradient workers.
func Training() Suite {
	perSample, batched, workers := TrainingBenchmarks()
	return Suite{Suite: "train", Benchmarks: []Result{
		measure("training/per-sample", perSample),
		measure("training/batched", batched),
		measure("training/batched-workers=4", workers),
	}}
}

// TrainingBenchmarks exposes the three sides of the training suite as
// sub-benchmarks for the root-level `go test -bench` entry point.
func TrainingBenchmarks() (perSample, batched, workers func(b *testing.B)) {
	const batchSize = 32
	step := func(trainWorkers int, train func(*valuenet.Network, []valuenet.Sample) float64) func(b *testing.B) {
		f := newTrainingFixture(batchSize, trainWorkers)
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				train(f.net, f.samples)
			}
		}
	}
	return step(1, (*valuenet.Network).TrainBatchPerSample),
		step(1, (*valuenet.Network).TrainBatch),
		step(4, (*valuenet.Network).TrainBatch)
}

// Episode measures one held-out evaluation sweep (plan search + simulated
// execution for a 16-query workload) over a bootstrapped system — the
// end-to-end number the episode pipeline optimises.
func Episode() Suite {
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.Histogram,
		Scale:            0.25,
		Seed:             17,
		SearchExpansions: 64,
		Episodes:         1,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{32, 16},
			TreeChannels: []int{16, 16, 8},
			HeadLayers:   []int{16},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: episode fixture: %v", err))
	}
	wl, err := sys.GenerateWorkload(16)
	if err != nil {
		panic(fmt.Sprintf("bench: episode workload: %v", err))
	}
	if err := sys.Bootstrap(wl.Queries[:8]); err != nil {
		panic(fmt.Sprintf("bench: episode bootstrap: %v", err))
	}
	return Suite{Suite: "episode", Benchmarks: []Result{
		measure("episode/evaluate-serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.Neo.EvaluateParallel(wl.Queries, 1); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}}
}

// Planning measures per-query planning latency on the episode fixture's
// workload: the statistics-free greedy fast path against the full DNN-guided
// best-first search, over exactly the queries the auto router sends to the
// fast path. Both sides are reported as P50/P99 percentiles (NsPerOp holds
// the percentile) rather than testing.Benchmark means, because the routing
// tentpole's claim is a latency-distribution one: the microsecond greedy
// ordering must undercut the millisecond search by orders of magnitude, not
// on average but on every routed query. The ratio gate in cmd/neo-bench pins
// plan/bestfirst-p50 / plan/fastpath-p50 >= 50.
//
// The P50 rows pool every round of every query. The P99 rows are the tail
// across queries of each query's fastest round: with a few dozen samples a
// pooled P99 is the single slowest one, i.e. whichever round a neighbour's
// burst landed on, and a 2x gate on it fails untouched code on a shared box.
func Planning() Suite {
	sys, routed := planFixture()

	// rounds times plan on every routed query, rounds times over, and
	// returns all samples and each query's minimum.
	rounds := func(n int, plan func(q *neo.Query) time.Duration) (all, best []float64) {
		best = make([]float64, len(routed))
		for round := 0; round < n; round++ {
			for i, q := range routed {
				ns := float64(plan(q).Nanoseconds())
				all = append(all, ns)
				if round == 0 || ns < best[i] {
					best[i] = ns
				}
			}
		}
		return all, best
	}
	fastNS, fastBest := rounds(32, func(q *neo.Query) time.Duration {
		res, err := fastpath.Plan(q, sys.Catalog)
		if err != nil {
			panic(fmt.Sprintf("bench: fastpath plan %s: %v", q.ID, err))
		}
		return res.Elapsed
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bestNS, bestBest := rounds(4, func(q *neo.Query) time.Duration {
		// The timed region includes scorer construction: the fast path
		// needs no scorer at all, so the search side pays for the whole
		// inference setup it requires.
		start := time.Now()
		if _, _, err := sys.OptimizeWith(q, sys.Neo.Scorer(q)); err != nil {
			panic(fmt.Sprintf("bench: best-first plan %s: %v", q.ID, err))
		}
		return time.Since(start)
	})
	runtime.ReadMemStats(&after)
	// Both search rows carry the mean allocations per search, so the 2x gate
	// holds search bookkeeping (Children, dedup, plan encoding) to its
	// allocation count as well as its time.
	bestAllocs := int64(after.Mallocs-before.Mallocs) / int64(len(bestNS))
	return Suite{Suite: "plan", Benchmarks: []Result{
		{Name: "plan/fastpath-p50", NsPerOp: percentileNS(fastNS, 0.50)},
		{Name: "plan/fastpath-p99", NsPerOp: percentileNS(fastBest, 0.99)},
		{Name: "plan/bestfirst-p50", NsPerOp: percentileNS(bestNS, 0.50), AllocsPerOp: bestAllocs},
		{Name: "plan/bestfirst-p99", NsPerOp: percentileNS(bestBest, 0.99), AllocsPerOp: bestAllocs},
	}}
}

// planFixture bootstraps the episode-shaped system and returns the workload
// queries the auto router sends to the fast path.
func planFixture() (*neo.System, []*neo.Query) {
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.Histogram,
		Scale:            0.25,
		Seed:             17,
		SearchExpansions: 64,
		Episodes:         1,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{32, 16},
			TreeChannels: []int{16, 16, 8},
			HeadLayers:   []int{16},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: plan fixture: %v", err))
	}
	wl, err := sys.GenerateWorkload(16)
	if err != nil {
		panic(fmt.Sprintf("bench: plan workload: %v", err))
	}
	if err := sys.Bootstrap(wl.Queries[:8]); err != nil {
		panic(fmt.Sprintf("bench: plan bootstrap: %v", err))
	}
	router := route.New(route.Auto, route.Policy{})
	var routed []*neo.Query
	for _, q := range wl.Queries {
		if router.Decide(q).Fastpath {
			routed = append(routed, q)
		}
	}
	if len(routed) == 0 {
		panic("bench: plan fixture routed no queries to the fast path")
	}
	return sys, routed
}

// PlanningBenchmarks exposes the two sides of the planning-latency suite as
// sub-benchmarks for the root-level `go test -bench` entry point: one
// fast-path greedy ordering pass and one full best-first search per
// iteration, over the routed queries of the shared fixture.
func PlanningBenchmarks() (fastpathSide, bestfirst func(b *testing.B)) {
	sys, routed := planFixture()
	fastpathSide = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := routed[i%len(routed)]
			if _, err := fastpath.Plan(q, sys.Catalog); err != nil {
				b.Fatal(err)
			}
		}
	}
	bestfirst = func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := routed[i%len(routed)]
			if _, _, err := sys.OptimizeWith(q, sys.Neo.Scorer(q)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return fastpathSide, bestfirst
}

// percentileNS returns the p-th percentile (nearest-rank) of the samples.
func percentileNS(ns []float64, p float64) float64 {
	sort.Float64s(ns)
	idx := int(math.Ceil(p*float64(len(ns)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ns) {
		idx = len(ns) - 1
	}
	return ns[idx]
}

// servingWorkers is the concurrency of the serving benchmark: 8 concurrent
// requests, the acceptance scenario of the serving tier.
const servingWorkers = 8

// servingHotQueries is how many distinct hot query structures the 8
// concurrent requests stampede over. Query popularity is heavily skewed in
// practice, so the post-swap stampede concentrates on the hottest handful of
// structures; four concurrent requests per hot query is the regime a
// retrain-every-N-feedbacks daemon re-enters constantly under load.
const servingHotQueries = 2

// servingFixture bootstraps a system and returns it with the hot queries.
func servingFixture() (*neo.System, []*neo.Query) {
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.Histogram,
		Scale:            0.25,
		Seed:             17,
		SearchExpansions: 64,
		Episodes:         1,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{32, 16},
			TreeChannels: []int{16, 16, 8},
			HeadLayers:   []int{16},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: serving fixture: %v", err))
	}
	wl, err := sys.GenerateWorkload(16)
	if err != nil {
		panic(fmt.Sprintf("bench: serving workload: %v", err))
	}
	if err := sys.Bootstrap(wl.Queries[:8]); err != nil {
		panic(fmt.Sprintf("bench: serving bootstrap: %v", err))
	}
	return sys, wl.Queries[:servingHotQueries]
}

// stampede issues the 8 concurrent requests — four per hot query — through
// plan and returns the plan signatures in worker order. It models the
// cache-cold stampede right after a retraining swap publishes an empty plan
// cache, when concurrent requests for the same hot query all miss at once.
func stampede(hot []*neo.Query, plan func(*neo.Query) (*neo.Plan, error)) []string {
	sigs := make([]string, servingWorkers)
	var wg sync.WaitGroup
	for g := 0; g < servingWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := plan(hot[g%len(hot)])
			if err != nil {
				panic(fmt.Sprintf("bench: serving search: %v", err))
			}
			sigs[g] = p.Signature()
		}(g)
	}
	wg.Wait()
	return sigs
}

// ServingBenchmarks builds the serving benchmark pairs over a shared fixture:
// 8 concurrent requests stampeding over 2 hot query structures, served by 8
// private searches (core.Neo.Optimize: every request pays its own search)
// versus through the snapshot's single-flight plan cache
// (core.Neo.OptimizeCached on a freshly published, hence empty-cached,
// snapshot: one search per structure, the other requests wait for it), at
// float64 and at float32 — the neo-serve default. Republishing the snapshot
// is outside the timed region. Plans are verified identical before measuring.
func ServingBenchmarks() (private, cached, privateF32, cachedF32 func(b *testing.B)) {
	sys, hot := servingFixture()
	n := sys.Neo
	uncached := func(q *neo.Query) (*neo.Plan, error) {
		p, _, err := n.Optimize(q)
		return p, err
	}
	throughCache := func(q *neo.Query) (*neo.Plan, error) {
		p, _, _, err := n.OptimizeCached(q)
		return p, err
	}
	// republish restores the current state onto itself: a fresh snapshot of
	// the same weights and version at the given precision, with an empty plan
	// cache.
	republish := func(prec valuenet.Precision) {
		n.Config.ScorePrecision = prec
		n.Restore(n.State())
	}
	bench := func(prec valuenet.Precision, plan func(*neo.Query) (*neo.Plan, error)) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				republish(prec)
				b.StartTimer()
				stampede(hot, plan)
			}
		}
	}

	// Safety check: the gate compares throughput of the two paths, so first
	// prove the cache hands every request the plan its own search finds.
	for _, prec := range []valuenet.Precision{valuenet.PrecisionFloat64, valuenet.PrecisionFloat32} {
		republish(prec)
		want := stampede(hot, uncached)
		for g, got := range stampede(hot, throughCache) {
			if got != want[g] {
				panic(fmt.Sprintf("bench: cached plan %s != private plan %s", got, want[g]))
			}
		}
	}
	return bench(valuenet.PrecisionFloat64, uncached), bench(valuenet.PrecisionFloat64, throughCache),
		bench(valuenet.PrecisionFloat32, uncached), bench(valuenet.PrecisionFloat32, throughCache)
}

// Serving measures the ServingBenchmarks set (the BenchmarkServing
// suite of the regression gate).
func Serving() Suite {
	private, cached, privateF32, cachedF32 := ServingBenchmarks()
	return Suite{Suite: "serve", Benchmarks: []Result{
		measure("serving/private", private),
		measure("serving/cached", cached),
		measure("serving/private-f32", privateF32),
		measure("serving/cached-f32", cachedF32),
	}}
}

// FileName returns the JSON file name a suite is stored under.
func FileName(suite string) string { return "BENCH_" + suite + ".json" }

// Write serialises the suite as <dir>/BENCH_<suite>.json. The write is
// atomic (temp file in the same directory, then rename), so an interrupted
// run can never leave a truncated or half-written file where a committed CI
// baseline is expected.
func Write(dir string, s Suite) (string, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(s.Suite))
	err = checkpoint.AtomicWriteFile(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// Load reads a suite file written by Write.
func Load(path string) (Suite, error) {
	var s Suite
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return s, nil
}

// Compare applies the regression gate: every benchmark present in both the
// baseline and the fresh suite must not regress by more than tolerance× in
// ns/op or allocs/op. The tolerance is deliberately generous (CI runners are
// slow, shared and single-core — the gate catches 2× blowups, not 5%
// jitter). Allocation counts get a small absolute slack so near-zero
// baselines don't flap. Returned problems are empty when the gate passes.
func Compare(baseline, fresh Suite, tolerance float64) []string {
	var problems []string
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	names := make([]string, 0, len(fresh.Benchmarks))
	freshBy := make(map[string]Result, len(fresh.Benchmarks))
	for _, r := range fresh.Benchmarks {
		names = append(names, r.Name)
		freshBy[r.Name] = r
	}
	sort.Strings(names)
	for _, name := range names {
		b, ok := base[name]
		if !ok {
			continue // new benchmark: becomes part of the baseline when committed
		}
		f := freshBy[name]
		if b.NsPerOp > 0 && f.NsPerOp > b.NsPerOp*tolerance {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f ns/op (> %.1fx regression)",
				name, f.NsPerOp, b.NsPerOp, tolerance))
		}
		allocBudget := float64(b.AllocsPerOp)*tolerance + 16
		if float64(f.AllocsPerOp) > allocBudget {
			problems = append(problems, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d allocs/op (> %.1fx regression)",
				name, f.AllocsPerOp, b.AllocsPerOp, tolerance))
		}
	}
	for _, r := range baseline.Benchmarks {
		if _, ok := freshBy[r.Name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: present in baseline but not measured", r.Name))
		}
	}
	return problems
}

// Speedup returns fast's speedup over slow (slowNs / fastNs) looked up by
// benchmark name, or an error when either is missing. The gate uses it for
// hardware-independent ratio checks (batched must actually beat
// per-sample, wherever it runs).
func Speedup(s Suite, slow, fast string) (float64, error) {
	var slowNs, fastNs float64
	for _, r := range s.Benchmarks {
		switch r.Name {
		case slow:
			slowNs = r.NsPerOp
		case fast:
			fastNs = r.NsPerOp
		}
	}
	if slowNs == 0 || fastNs == 0 {
		return 0, fmt.Errorf("bench: suite %s lacks %q or %q", s.Suite, slow, fast)
	}
	return slowNs / fastNs, nil
}

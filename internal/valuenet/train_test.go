package valuenet

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"neo/internal/treeconv"
)

// randSamples builds a batch of training samples shaped like Neo's
// experience: several samples share one query encoding slice (the dedup hot
// path), forests vary in size and include empty ones.
func randSamples(rng *rand.Rand, n, queryDim, planDim int) []Sample {
	shared := randVec(rng, queryDim)
	out := make([]Sample, n)
	for i := range out {
		q := shared
		if i%5 == 4 {
			q = randVec(rng, queryDim)
		}
		out[i] = Sample{
			Query:  q,
			Plan:   randForest(rng, planDim),
			Target: math.Exp(rng.NormFloat64() * 3),
		}
	}
	return out
}

// setProcs sets GOMAXPROCS — the width of TrainBatch's worker pool — to
// procs for the rest of the test and restores the previous value when the
// test ends.
func setProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func cloneFor(t *testing.T, cfg Config, queryDim, planDim int) (*Network, *Network) {
	t.Helper()
	a := New(queryDim, planDim, cfg)
	b := New(queryDim, planDim, cfg)
	a.FitTargetTransform([]float64{1, 10, 100, 1000})
	b.FitTargetTransform([]float64{1, 10, 100, 1000})
	return a, b
}

func maxParamDiff(a, b *Network) float64 {
	pa, pb := a.Params(), b.Params()
	worst := 0.0
	for i := range pa {
		for j := range pa[i].Value {
			if d := math.Abs(pa[i].Value[j] - pb[i].Value[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestTrainBatchMatchesPerSample is the training parity property test: one
// batched TrainBatch step must move the weights to within 1e-9 of a
// TrainBatchPerSample step from identical initial weights, over random
// networks and random sample batches (shared and distinct queries, empty
// forests, both layer-norm settings).
func TestTrainBatchMatchesPerSample(t *testing.T) {
	const queryDim, planDim = 9, 7
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Seed = seed + 50
		cfg.UseLayerNorm = seed%2 == 0
		batched, perSample := cloneFor(t, cfg, queryDim, planDim)
		samples := randSamples(rng, 33, queryDim, planDim)

		for step := 0; step < 3; step++ {
			lb := batched.TrainBatch(samples)
			lp := perSample.TrainBatchPerSample(samples)
			if math.Abs(lb-lp) > 1e-9 {
				t.Errorf("seed %d step %d: loss diverged: batched %v, per-sample %v", seed, step, lb, lp)
			}
		}
		if d := maxParamDiff(batched, perSample); d > 1e-9 {
			t.Errorf("seed %d: max weight difference %g after 3 steps, want <= 1e-9", seed, d)
		}
	}
}

// sharedSamples builds 10 samples shaped like an experience entry's
// construction states: per entry, its leaves, then forests that join them
// bottom-up, all sharing the entry's subtree pointers. Entry 0's states are
// trained under two query vectors, so the same trees meet both.
func sharedSamples(rng *rand.Rand, queryDim, planDim int) []Sample {
	qa, qb := randVec(rng, queryDim), randVec(rng, queryDim)
	var out []Sample
	add := func(q []float64, forest ...*treeconv.Tree) {
		out = append(out, Sample{Query: q, Plan: forest, Target: math.Exp(rng.NormFloat64() * 3)})
	}
	for entry := 0; entry < 2; entry++ {
		leaf := func() *treeconv.Tree { return treeconv.NewLeaf(randVec(rng, planDim)) }
		l1, l2, l3, l4 := leaf(), leaf(), leaf(), leaf()
		j12 := treeconv.NewNode(randVec(rng, planDim), l1, l2)
		j34 := treeconv.NewNode(randVec(rng, planDim), l3, l4)
		root := treeconv.NewNode(randVec(rng, planDim), j12, j34)
		add(qa, l1, l2, l3, l4)
		add(qa, j12, l3, l4)
		add(qa, j12, j34)
		add(qa, root)
		if entry == 0 {
			add(qb, j12, j34)
			add(qb, root)
		}
	}
	return out
}

// TestTrainBatchSharedSubtrees feeds TrainBatch minibatches whose samples
// share subtrees inside a shard. Each shard's table must hold exactly the
// distinct (tree, query) pairs — one row per subtree per query vector — and
// training must stay within 1e-9 of the per-sample reference, where every
// occurrence of a subtree backpropagates separately, and bit-identical
// across GOMAXPROCS.
func TestTrainBatchSharedSubtrees(t *testing.T) {
	const queryDim, planDim = 9, 7
	samples := sharedSamples(rand.New(rand.NewSource(8)), queryDim, planDim)
	cfg := DefaultConfig()
	cfg.Seed = 13

	setProcs(t, 1)
	batched, perSample := cloneFor(t, cfg, queryDim, planDim)
	for step := 0; step < 3; step++ {
		lb := batched.TrainBatch(samples)
		lp := perSample.TrainBatchPerSample(samples)
		if math.Abs(lb-lp) > 1e-9 {
			t.Errorf("step %d: loss diverged: batched %v, per-sample %v", step, lb, lp)
		}
	}
	if d := maxParamDiff(batched, perSample); d > 1e-9 {
		t.Errorf("max weight difference %g after 3 steps, want <= 1e-9", d)
	}

	for s, sh := range batched.train.shards {
		type pair struct {
			t     *treeconv.Tree
			query *float64
		}
		want := map[pair]bool{}
		for _, smp := range samples[s*trainShardSize : min((s+1)*trainShardSize, len(samples))] {
			for _, root := range smp.Plan {
				root.Walk(func(n *treeconv.Tree) { want[pair{n, &smp.Query[0]}] = true })
			}
		}
		got := map[pair]int{}
		for e, n := range sh.tab.Tree {
			got[pair{n, &sh.qVecs[sh.tab.Group[e]][0]}]++
		}
		if sh.tab.Len() != len(want) || len(got) != len(want) {
			t.Fatalf("shard %d: %d rows, %d distinct, want the %d distinct (tree, query) pairs", s, sh.tab.Len(), len(got), len(want))
		}
		for p := range want {
			if got[p] != 1 {
				t.Errorf("shard %d: %d rows for a (tree, query) pair, want 1", s, got[p])
			}
		}
	}
	// Shard 0 holds entry 0's states under both query vectors: its joined
	// root has a row for each.
	root := samples[3].Plan[0]
	rows := 0
	for _, n := range batched.train.shards[0].tab.Tree {
		if n == root {
			rows++
		}
	}
	if rows != 2 {
		t.Errorf("a tree met under two query vectors has %d rows, want 2", rows)
	}

	setProcs(t, 4)
	wide := New(queryDim, planDim, cfg)
	wide.FitTargetTransform([]float64{1, 10, 100, 1000})
	for step := 0; step < 3; step++ {
		wide.TrainBatch(samples)
	}
	if d := maxParamDiff(batched, wide); d != 0 {
		t.Errorf("GOMAXPROCS 4 weights differ from GOMAXPROCS 1 by %g, want bit-identical", d)
	}
}

// TestTrainBatchWorkerInvariance pins the determinism contract of the
// sharded gradient reduction: trained weights are bit-identical for every
// GOMAXPROCS, because the shard partition and reduction order depend only on
// the batch size.
func TestTrainBatchWorkerInvariance(t *testing.T) {
	const queryDim, planDim = 8, 6
	rng := rand.New(rand.NewSource(11))
	samples := randSamples(rng, 37, queryDim, planDim)

	cfg := DefaultConfig()
	cfg.Seed = 21
	setProcs(t, 1)
	serial := New(queryDim, planDim, cfg)
	serial.FitTargetTransform([]float64{1, 10, 100})
	var serialLoss float64
	for step := 0; step < 2; step++ {
		serialLoss = serial.TrainBatch(samples)
	}
	for _, workers := range []int{2, 3, 8} {
		setProcs(t, workers)
		net := New(queryDim, planDim, cfg)
		net.FitTargetTransform([]float64{1, 10, 100})
		var loss float64
		for step := 0; step < 2; step++ {
			loss = net.TrainBatch(samples)
		}
		if loss != serialLoss {
			t.Errorf("workers=%d: loss %v != serial loss %v (must be bit-identical)", workers, loss, serialLoss)
		}
		if d := maxParamDiff(serial, net); d != 0 {
			t.Errorf("workers=%d: weights differ from serial by %g, want bit-identical", workers, d)
		}
	}
}

// TestTrainDeterministicAcrossRuns asserts that two identically-seeded Train
// runs (full epochs, shuffling, batched pipeline) produce bit-identical
// weights.
func TestTrainDeterministicAcrossRuns(t *testing.T) {
	const queryDim, planDim = 8, 6
	mk := func(workers int) *Network {
		setProcs(t, workers)
		rng := rand.New(rand.NewSource(5))
		samples := randSamples(rng, 40, queryDim, planDim)
		cfg := DefaultConfig()
		cfg.Seed = 9
		net := New(queryDim, planDim, cfg)
		net.Train(samples, 3, 16, rand.New(rand.NewSource(77)))
		return net
	}
	a, b := mk(1), mk(1)
	if d := maxParamDiff(a, b); d != 0 {
		t.Errorf("identically-seeded Train runs differ by %g, want bit-identical", d)
	}
	c := mk(4)
	if d := maxParamDiff(a, c); d != 0 {
		t.Errorf("Train with 4 workers differs from serial by %g, want bit-identical", d)
	}
}

// TestTrainBatchConcurrentInference exercises snapshot-based planning racing
// a multi-worker training round (run with -race): inference must score with
// the frozen clone while TrainBatch mutates the live weights.
func TestTrainBatchConcurrentInference(t *testing.T) {
	const queryDim, planDim = 6, 5
	rng := rand.New(rand.NewSource(3))
	setProcs(t, 4)
	net := New(queryDim, planDim, DefaultConfig())
	net.FitTargetTransform([]float64{1, 10, 100})
	samples := randSamples(rng, 24, queryDim, planDim)

	snap := net.Snapshot()
	queries := make([][]float64, 8)
	forests := make([][]*treeconv.Tree, 8)
	for i := range queries {
		queries[i] = randVec(rng, queryDim)
		forests[i] = randForest(rng, planDim)
	}
	want := snap.PredictBatch(queries, forests)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for iter := 0; iter < 10; iter++ {
			net.TrainBatch(samples)
		}
	}()
	for iter := 0; iter < 20; iter++ {
		got := snap.PredictBatch(queries, forests)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("snapshot prediction drifted during training at %d: %v != %v", i, got[i], want[i])
			}
		}
	}
	<-done
}

// TestTrainBatchEmpty pins the no-op contract.
func TestTrainBatchEmpty(t *testing.T) {
	net := New(4, 3, DefaultConfig())
	if loss := net.TrainBatch(nil); loss != 0 {
		t.Errorf("TrainBatch(nil) = %v, want 0", loss)
	}
}

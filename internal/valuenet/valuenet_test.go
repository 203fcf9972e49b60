package valuenet

import (
	"math"
	"math/rand"
	"testing"

	"neo/internal/reftest"
)

// synthTree builds a random plan-like tree with the given node vector size.
func synthTree(rng *rand.Rand, dim, depth int) *reftest.Tree {
	data := make([]float64, dim)
	for i := range data {
		if rng.Float64() < 0.3 {
			data[i] = 1
		}
	}
	if depth == 0 {
		return reftest.Leaf(data)
	}
	return reftest.Join(data, synthTree(rng, dim, depth-1), synthTree(rng, dim, depth-1))
}

func TestNewAndSizes(t *testing.T) {
	n := New(20, 10, DefaultConfig())
	if n.NumParameters() <= 0 {
		t.Fatalf("network should have parameters")
	}
	if len(n.Params()) == 0 {
		t.Fatalf("Params should not be empty")
	}
	// Paper config builds a much larger network.
	big := New(20, 10, PaperConfig())
	if big.NumParameters() <= n.NumParameters() {
		t.Errorf("paper config should have more parameters (%d vs %d)", big.NumParameters(), n.NumParameters())
	}
}

func TestPredictIsFiniteAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New(12, 8, DefaultConfig())
	q := make([]float64, 12)
	for i := range q {
		q[i] = rng.Float64()
	}
	trees := []*reftest.Tree{synthTree(rng, 8, 2)}
	p1 := n.refPredict(q, trees)
	p2 := n.refPredict(q, trees)
	if math.IsNaN(p1) || math.IsInf(p1, 0) {
		t.Fatalf("prediction is not finite: %f", p1)
	}
	if p1 != p2 {
		t.Errorf("prediction should be deterministic: %f vs %f", p1, p2)
	}
}

func TestForestInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := New(6, 5, DefaultConfig())
	q := []float64{1, 0, 1, 0, 0.5, 0.2}
	forest := []*reftest.Tree{
		synthTree(rng, 5, 1),
		reftest.Leaf([]float64{1, 0, 0, 1, 0}),
		reftest.Leaf([]float64{0, 1, 1, 0, 0}),
	}
	out := n.refPredict(q, forest)
	if math.IsNaN(out) {
		t.Fatalf("forest prediction is NaN")
	}
}

func TestTargetTransform(t *testing.T) {
	n := New(4, 4, DefaultConfig())
	n.FitTargetTransform([]float64{10, 100, 1000})
	if n.targetStd <= 0 {
		t.Fatalf("target std must be positive")
	}
	for _, c := range []float64{10, 100, 1000} {
		round := n.denormalize(n.normalize(c))
		if math.Abs(round-c) > c*1e-9+1e-9 {
			t.Errorf("normalize/denormalize round trip: %f -> %f", c, round)
		}
	}
	// Degenerate cases.
	n.FitTargetTransform(nil)
	if n.targetMean != 0 || n.targetStd != 1 {
		t.Errorf("empty fit should reset to identity-ish transform")
	}
	n.FitTargetTransform([]float64{5, 5, 5})
	if n.targetStd != 1 {
		t.Errorf("constant targets should give std 1, got %f", n.targetStd)
	}
}

// TestLearnsToSeparatePlans is the core sanity check: the network must learn
// to predict higher costs for "bad" plan structures than for "good" ones.
func TestLearnsToSeparatePlans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const queryDim, planDim = 10, 6

	// Synthetic rule: plans whose root vector has feature 0 set (think "loop
	// join at the root") cost 1000; others cost 10. The query vector is
	// random noise.
	var ids reftest.IDs
	mkSample := func(bad bool) Sample {
		q := make([]float64, queryDim)
		for i := range q {
			q[i] = rng.Float64()
		}
		rootVec := make([]float64, planDim)
		if bad {
			rootVec[0] = 1
		} else {
			rootVec[1] = 1
		}
		leaf1 := make([]float64, planDim)
		leaf1[3] = 1
		leaf2 := make([]float64, planDim)
		leaf2[4] = 1
		tree := reftest.Join(rootVec, reftest.Leaf(leaf1), reftest.Leaf(leaf2))
		target := 10.0
		if bad {
			target = 1000.0
		}
		return refSample(&ids, q, []*reftest.Tree{tree}, target)
	}

	var samples []Sample
	for i := 0; i < 60; i++ {
		samples = append(samples, mkSample(i%2 == 0))
	}
	cfg := DefaultConfig()
	cfg.LearningRate = 3e-3
	n := New(queryDim, planDim, cfg)
	loss := n.Train(samples, 80, 16, rng)
	if math.IsNaN(loss) {
		t.Fatalf("training loss is NaN")
	}

	good := mkSample(false)
	bad := mkSample(true)
	pg := n.refPredict(good.Query, reftest.Trees(good.Nodes, good.Roots))
	pb := n.refPredict(bad.Query, reftest.Trees(bad.Nodes, bad.Roots))
	if pb <= pg {
		t.Errorf("bad plan should predict higher cost: good=%f bad=%f", pg, pb)
	}
	// Predictions should be in the right ballpark (within a factor of ~5).
	if pg > 100 || pb < 100 {
		t.Errorf("predictions not calibrated: good=%f (want ~10) bad=%f (want ~1000)", pg, pb)
	}
}

func TestTrainBatchReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := New(5, 4, DefaultConfig())
	var ids reftest.IDs
	mk := func() Sample {
		q := make([]float64, 5)
		tree := synthTree(rng, 4, 1)
		target := 50.0
		if tree.Data[0] > 0 {
			target = 500.0
		}
		return refSample(&ids, q, []*reftest.Tree{tree}, target)
	}
	var samples []Sample
	for i := 0; i < 40; i++ {
		samples = append(samples, mk())
	}
	costs := make([]float64, len(samples))
	for i := range samples {
		costs[i] = samples[i].Target
	}
	n.FitTargetTransform(costs)
	first := n.TrainBatch(samples)
	var last float64
	for i := 0; i < 60; i++ {
		last = n.TrainBatch(samples)
	}
	if last >= first {
		t.Errorf("training loss should decrease: first %f, last %f", first, last)
	}
	if n.TrainBatch(nil) != 0 {
		t.Errorf("empty batch should return 0 loss")
	}
}

func TestTrainEmpty(t *testing.T) {
	n := New(4, 4, DefaultConfig())
	if loss := n.Train(nil, 5, 8, rand.New(rand.NewSource(1))); loss != 0 {
		t.Errorf("training on empty data should return 0")
	}
}

// BenchmarkPredict times what scores a plan: a fresh scorer running the
// query tower and one 15-node plan tree.
func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := New(60, 22, DefaultConfig())
	q := make([]float64, 60)
	for i := range q {
		q[i] = rng.Float64()
	}
	var ids reftest.IDs
	forests := ids.Forests([][]*reftest.Tree{{synthTree(rng, 22, 3)}})
	snap := n.Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap.NewScorer(q, &ids).Score(forests)
	}
}

// BenchmarkTrainBatch times one TrainBatch step on a minibatch shaped like
// measured retraining traffic: DefaultConfig over the IMDB encoding widths
// (a 761-wide query encoding about 5 % non-zero, 23-wide node vectors), 16
// samples (core's batchSize) drawn from the construction states of 25
// queries' plans of 4–8 relations — samples of one query share its encoding
// slice and their plan's subtrees, as core builds them.
func BenchmarkTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const queryDim, planDim = 761, 23
	n := New(queryDim, planDim, DefaultConfig())
	var ids reftest.IDs
	var pool []Sample
	for qi := 0; qi < 25; qi++ {
		q := make([]float64, queryDim)
		for j := range q {
			if rng.Float64() < 0.05 {
				q[j] = rng.Float64()
			}
		}
		// The all-leaves state, then one state per join, bottom-up.
		forest := make([]*reftest.Tree, 4+rng.Intn(5))
		for i := range forest {
			forest[i] = synthTree(rng, planDim, 0)
		}
		for {
			pool = append(pool, refSample(&ids, q, forest, float64(10+rng.Intn(1000))))
			if len(forest) == 1 {
				break
			}
			i := rng.Intn(len(forest) - 1)
			join := reftest.Join(synthTree(rng, planDim, 0).Data, forest[i], forest[i+1])
			forest = append(append(forest[:i:i], join), forest[i+2:]...)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	samples := pool[:16]
	n.FitTargetTransform([]float64{10, 1010})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.TrainBatch(samples)
	}
}

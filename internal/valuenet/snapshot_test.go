package valuenet

import (
	"math/rand"
	"testing"

	"neo/internal/treeconv"
)

func snapshotTestNetwork() (*Network, []float64, []*treeconv.Tree) {
	cfg := Config{
		QueryLayers:  []int{8, 4},
		TreeChannels: []int{8, 4},
		HeadLayers:   []int{4},
		LearningRate: 1e-2,
		UseLayerNorm: true,
		Seed:         11,
	}
	net := New(3, 5, cfg)
	q := []float64{0.2, -0.4, 0.9}
	leaf := func(seed float64) *treeconv.Tree {
		return treeconv.NewLeaf([]float64{seed, seed * 0.5, -seed, 0.1, 0.3})
	}
	trees := []*treeconv.Tree{treeconv.NewNode([]float64{1, 0, 0.5, -0.2, 0.7}, leaf(0.3), leaf(-0.6))}
	return net, q, trees
}

// TestSnapshotIsImmutableUnderTraining is the double-buffering contract: a
// snapshot keeps scoring with the weights it was frozen with, no matter how
// much the live network trains afterwards.
func TestSnapshotIsImmutableUnderTraining(t *testing.T) {
	net, q, trees := snapshotTestNetwork()
	snap := net.Snapshot()

	before := snap.Predict(q, trees)
	beforeNorm := snap.PredictBatchNormalized([][]float64{q}, [][]*treeconv.Tree{trees})[0]
	if live := net.PredictNormalized(q, trees); relErr(beforeNorm, live) > 1e-5 {
		t.Fatalf("fresh snapshot should match the live network: snap %v, live %v", beforeNorm, live)
	}

	samples := []Sample{
		{Query: q, Plan: trees, Target: 1200},
		{Query: []float64{1, 1, 1}, Plan: trees, Target: 40},
	}
	rng := rand.New(rand.NewSource(5))
	net.Train(samples, 20, 2, rng)

	if after := net.Predict(q, trees); after == before {
		t.Errorf("training should have changed the live network's prediction (stayed %v)", after)
	}
	if got := snap.Predict(q, trees); got != before {
		t.Errorf("snapshot prediction changed under training: %v -> %v", before, got)
	}
	if got := snap.PredictBatchNormalized([][]float64{q}, [][]*treeconv.Tree{trees})[0]; got != beforeNorm {
		t.Errorf("snapshot normalized prediction changed under training: %v -> %v", beforeNorm, got)
	}
	batch := snap.PredictBatch([][]float64{q, q}, [][]*treeconv.Tree{trees, trees})
	if len(batch) != 2 || batch[0] != before || batch[1] != before {
		t.Errorf("snapshot batch path should match its per-sample path: %v, want %v", batch, before)
	}
}

// TestCloneIsDeepAndEquivalent checks that a clone predicts identically but
// shares no parameter storage with the original.
func TestCloneIsDeepAndEquivalent(t *testing.T) {
	net, q, trees := snapshotTestNetwork()
	clone := net.Clone()
	if clone.NumParameters() != net.NumParameters() {
		t.Fatalf("clone has %d parameters, original %d", clone.NumParameters(), net.NumParameters())
	}
	if a, b := net.Predict(q, trees), clone.Predict(q, trees); a != b {
		t.Fatalf("clone predicts %v, original %v", b, a)
	}
	// Mutating the original must not leak into the clone.
	orig := net.Params()
	before := clone.Predict(q, trees)
	for _, p := range orig {
		for i := range p.Value {
			p.Value[i] += 0.1
		}
	}
	if got := clone.Predict(q, trees); got != before {
		t.Errorf("clone shares storage with the original: %v -> %v", before, got)
	}
}

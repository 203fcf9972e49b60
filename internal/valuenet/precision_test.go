package valuenet

import (
	"math/rand"
	"sync"
	"testing"

	"neo/internal/reftest"
)

// precisionFixture builds a lightly trained network plus a reference workload
// of (query, forest) pairs.
func precisionFixture(t *testing.T, seed int64) (*Network, [][]float64, [][]*reftest.Tree, []Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const queryDim, planDim = 11, 7
	cfg := DefaultConfig()
	cfg.QueryLayers = []int{16, 8}
	cfg.TreeChannels = []int{12, 8}
	cfg.HeadLayers = []int{8}
	net := New(queryDim, planDim, cfg)

	var ids reftest.IDs
	var samples []Sample
	queries := make([][]float64, 0, 24)
	forests := make([][]*reftest.Tree, 0, 24)
	for i := 0; i < 24; i++ {
		q := make([]float64, queryDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		forest := []*reftest.Tree{randomPlanTree(rng, 1+rng.Intn(4), planDim)}
		queries, forests = append(queries, q), append(forests, forest)
		samples = append(samples, refSample(&ids, q, forest, 10+rng.Float64()*1000))
	}
	net.Train(samples, 2, 8, rng)
	return net, queries, forests, samples
}

// randomPlanTree builds a random binary tree with n ≥ 1 leaves (2n−1 nodes).
func randomPlanTree(rng *rand.Rand, n, dim int) *reftest.Tree {
	data := make([]float64, dim)
	for i := range data {
		data[i] = rng.Float64()
	}
	if n == 1 {
		return reftest.Leaf(data)
	}
	nl := 1 + rng.Intn(n-1)
	return reftest.Join(data, randomPlanTree(rng, nl, dim), randomPlanTree(rng, n-nl, dim))
}

// TestSnapshotFloat32Parity asserts a trained network's snapshot scores
// within 1e-5 relative of the per-sample float64 reference in normalised
// space, one forest per scorer.
func TestSnapshotFloat32Parity(t *testing.T) {
	net, queries, forests, _ := precisionFixture(t, 31)
	s32 := net.Snapshot()

	got := scoreFresh(s32, queries, forests)
	for i := range got {
		want := net.refPredictNormalized(queries[i], forests[i])
		if rel := relErr(got[i], want); rel > 1e-5 {
			t.Fatalf("f32 normalised[%d] = %v want %v (rel err %g)", i, got[i], want, rel)
		}
	}

	// Denormalized predictions pass through the same float64 output boundary.
	var ids reftest.IDs
	if p, b := s32.NewScorer(queries[0], &ids).Score(ids.Forests(forests[:1]))[0], net.denormalize(got[0]); p != b {
		t.Fatalf("Score/denormalized diverge: %v vs %v", p, b)
	}
}

// TestSnapshotInfo asserts the footprint report: the frozen-from network's
// float64 weights at 8 bytes/param, float32 panels at ≈4 bytes/param plus
// padding.
func TestSnapshotInfo(t *testing.T) {
	net, _, _, _ := precisionFixture(t, 34)
	info := net.Snapshot().Info()

	if info.Parameters != net.NumParameters() || info.ParamBytes != 8*net.NumParameters() {
		t.Fatalf("param accounting wrong: %+v", info)
	}
	if info.PanelBytes < 4*net.NumParameters() {
		t.Fatalf("float32 panels (%d B) smaller than 4 B/param over %d params", info.PanelBytes, net.NumParameters())
	}
}

// TestSnapshotFloat32Concurrent hammers one shared float32 snapshot from many
// goroutines (run under -race in CI) and checks every caller sees identical
// scores.
func TestSnapshotFloat32Concurrent(t *testing.T) {
	net, queries, forests, _ := precisionFixture(t, 35)
	s32 := net.Snapshot()
	want := scoreFresh(s32, queries, forests)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got := scoreFresh(s32, queries, forests)
				for i := range want {
					if got[i] != want[i] {
						errs <- "concurrent scoring diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

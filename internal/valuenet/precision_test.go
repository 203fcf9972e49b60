package valuenet

import (
	"math/rand"
	"sync"
	"testing"

	"neo/internal/treeconv"
)

// precisionFixture builds a lightly trained network plus a reference workload
// of (query, forest) pairs.
func precisionFixture(t *testing.T, seed int64) (*Network, [][]float64, [][]*treeconv.Tree, []Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const queryDim, planDim = 11, 7
	cfg := DefaultConfig()
	cfg.QueryLayers = []int{16, 8}
	cfg.TreeChannels = []int{12, 8}
	cfg.HeadLayers = []int{8}
	net := New(queryDim, planDim, cfg)

	var samples []Sample
	for i := 0; i < 24; i++ {
		q := make([]float64, queryDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		samples = append(samples, Sample{
			Query:  q,
			Plan:   []*treeconv.Tree{randomPlanTree(rng, 1+rng.Intn(6), planDim)},
			Target: 10 + rng.Float64()*1000,
		})
	}
	net.Train(samples, 2, 8, rng)

	queries := make([][]float64, len(samples))
	forests := make([][]*treeconv.Tree, len(samples))
	for i, s := range samples {
		queries[i] = s.Query
		forests[i] = s.Plan
	}
	return net, queries, forests, samples
}

func randomPlanTree(rng *rand.Rand, n, dim int) *treeconv.Tree {
	if n <= 0 {
		return nil
	}
	data := make([]float64, dim)
	for i := range data {
		data[i] = rng.Float64()
	}
	if n == 1 {
		return treeconv.NewLeaf(data)
	}
	nl := rng.Intn(n)
	return treeconv.NewNode(data, randomPlanTree(rng, nl, dim), randomPlanTree(rng, n-1-nl, dim))
}

// TestSnapshotFloat32Parity asserts a trained network's snapshot scores
// within 1e-5 relative of the per-sample float64 reference in normalised
// space, including batch=1.
func TestSnapshotFloat32Parity(t *testing.T) {
	net, queries, forests, _ := precisionFixture(t, 31)
	s32 := net.Snapshot()

	got := s32.PredictBatchNormalized(queries, forests)
	for i := range got {
		want := net.PredictNormalized(queries[i], forests[i])
		if rel := relErr(got[i], want); rel > 1e-5 {
			t.Fatalf("f32 normalised[%d] = %v want %v (rel err %g)", i, got[i], want, rel)
		}
	}

	// Batch of one and the single-pair entry point agree with the batch.
	one := s32.PredictBatchNormalized(queries[:1], forests[:1])
	if one[0] != got[0] {
		t.Fatalf("batch=1 diverges: %v vs %v", one[0], got[0])
	}
	// Denormalized predictions pass through the same float64 output boundary.
	if p, b := s32.Predict(queries[0], forests[0]), s32.PredictBatch(queries[:1], forests[:1])[0]; p != b {
		t.Fatalf("Predict/PredictBatch diverge: %v vs %v", p, b)
	}
}

// TestSnapshotInfo asserts the footprint report: float64 master weights at
// 8 bytes/param, float32 panels at ≈4 bytes/param plus padding.
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
	want := s32.PredictBatchNormalized(queries, forests)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got := s32.PredictBatchNormalized(queries, forests)
				for i := range want {
					if got[i] != want[i] {
						errs <- "concurrent PredictBatch diverged"
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

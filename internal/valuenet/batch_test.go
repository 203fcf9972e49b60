package valuenet

import (
	"math/rand"
	"sync"
	"testing"

	"neo/internal/treeconv"
)

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randTree(rng *rand.Rand, n, dim int) *treeconv.Tree {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return treeconv.NewLeaf(randVec(rng, dim))
	}
	nl := rng.Intn(n)
	return treeconv.NewNode(randVec(rng, dim), randTree(rng, nl, dim), randTree(rng, n-1-nl, dim))
}

func randForest(rng *rand.Rand, dim int) []*treeconv.Tree {
	trees := rng.Intn(4) // 0..3 trees; 0 exercises the empty-forest path
	out := make([]*treeconv.Tree, 0, trees)
	for i := 0; i < trees; i++ {
		out = append(out, randTree(rng, 1+rng.Intn(11), dim))
	}
	return out
}

// TestPredictBatchMatchesPredict is the batched-vs-sequential parity property
// test: over random networks, random forests (including empty ones), shared
// and distinct query vectors, a float64 snapshot's PredictBatch must equal
// the per-sample reference Network.Predict exactly.
func TestPredictBatchMatchesPredict(t *testing.T) {
	const queryDim, planDim = 9, 7
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Seed = seed + 100
		net := New(queryDim, planDim, cfg)
		// Exercise a non-trivial target transform.
		net.FitTargetTransform([]float64{1, 10, 100, 1000, 12345})

		const batch = 33
		queries := make([][]float64, batch)
		forests := make([][]*treeconv.Tree, batch)
		shared := randVec(rng, queryDim) // most rows share one query, as in search
		for i := range queries {
			if i%5 == 4 {
				queries[i] = randVec(rng, queryDim)
			} else {
				queries[i] = shared
			}
			forests[i] = randForest(rng, planDim)
		}

		snap := net.Snapshot()
		got := snap.PredictBatch(queries, forests)
		if len(got) != batch {
			t.Fatalf("seed %d: PredictBatch returned %d results, want %d", seed, len(got), batch)
		}
		for i := range got {
			if want := net.Predict(queries[i], forests[i]); got[i] != want {
				t.Errorf("seed %d sample %d: batch %v != sequential %v", seed, i, got[i], want)
			}
		}

		gotN := snap.PredictBatchNormalized(queries, forests)
		for i := range gotN {
			if want := net.PredictNormalized(queries[i], forests[i]); gotN[i] != want {
				t.Errorf("seed %d sample %d (normalized): batch %v != sequential %v", seed, i, gotN[i], want)
			}
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	snap := New(4, 3, DefaultConfig()).Snapshot()
	if out := snap.PredictBatch(nil, nil); out != nil {
		t.Fatalf("PredictBatch(nil) = %v, want nil", out)
	}
}

// TestPredictBatchConcurrent scores on one shared snapshot from many
// goroutines (PlanAll plans independent queries over one shared network); run
// with -race to detect unsynchronised state.
func TestPredictBatchConcurrent(t *testing.T) {
	const queryDim, planDim = 6, 5
	snap := New(queryDim, planDim, DefaultConfig()).Snapshot()
	rng := rand.New(rand.NewSource(7))
	queries := make([][]float64, 16)
	forests := make([][]*treeconv.Tree, 16)
	for i := range queries {
		queries[i] = randVec(rng, queryDim)
		forests[i] = randForest(rng, planDim)
	}
	want := snap.PredictBatch(queries, forests)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got := snap.PredictBatch(queries, forests)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("concurrent PredictBatch diverged at %d: %v != %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

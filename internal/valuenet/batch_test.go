package valuenet

import (
	"math"
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

// randTree builds a random binary tree with n ≥ 1 leaves (2n−1 nodes).
func randTree(rng *rand.Rand, n, dim int) *treeconv.Tree {
	if n == 1 {
		return treeconv.NewLeaf(randVec(rng, dim))
	}
	nl := 1 + rng.Intn(n-1)
	return treeconv.NewNode(randVec(rng, dim), randTree(rng, nl, dim), randTree(rng, n-nl, dim))
}

func randForest(rng *rand.Rand, dim int) []*treeconv.Tree {
	trees := rng.Intn(4) // 0..3 trees; 0 exercises the empty-forest path
	out := make([]*treeconv.Tree, 0, trees)
	for i := 0; i < trees; i++ {
		out = append(out, randTree(rng, 1+rng.Intn(6), dim))
	}
	return out
}

// relErr is |got−want| relative to max(1, |want|): the bound the float32
// scorer is held to against the float64 per-sample reference, in normalised
// space.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

// TestPredictBatchMatchesPredict is the batched-vs-sequential parity property
// test: over random networks, random forests (including empty ones), shared
// and distinct query vectors, a snapshot's PredictBatchNormalized must be
// within 1e-5 relative of the per-sample reference refPredictNormalized,
// and PredictBatch must be its denormalization bit for bit.
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
		gotN := snap.PredictBatchNormalized(queries, forests)
		if len(got) != batch || len(gotN) != batch {
			t.Fatalf("seed %d: PredictBatch returned %d/%d results, want %d", seed, len(got), len(gotN), batch)
		}
		for i := range gotN {
			if want := net.refPredictNormalized(queries[i], forests[i]); relErr(gotN[i], want) > 1e-5 {
				t.Errorf("seed %d sample %d (normalized): batch %v, sequential %v (rel err %g)", seed, i, gotN[i], want, relErr(gotN[i], want))
			}
			if want := net.denormalize(gotN[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("seed %d sample %d: PredictBatch %v != denormalized %v", seed, i, got[i], want)
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

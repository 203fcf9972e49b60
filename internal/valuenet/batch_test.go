package valuenet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"neo/internal/reftest"
)

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randForest(rng *rand.Rand, dim int) []*reftest.Tree {
	trees := rng.Intn(4) // 0..3 trees; 0 exercises the empty-forest path
	out := make([]*reftest.Tree, 0, trees)
	for i := 0; i < trees; i++ {
		out = append(out, reftest.RandomTree(rng, 1+rng.Intn(6), dim))
	}
	return out
}

// relErr is |got−want| relative to max(1, |want|): the bound the float32
// scorer is held to against the float64 per-sample reference, in normalised
// space.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

// scoreFresh scores every (query, forest) pair from scratch in normalised
// space: a fresh id space and a fresh scorer per pair, so nothing is
// recalled.
func scoreFresh(snap *Snapshot, queries [][]float64, forests [][]*reftest.Tree) []float64 {
	out := make([]float64, len(forests))
	for i, f := range forests {
		var ids reftest.IDs
		out[i] = snap.NewScorer(queries[i], &ids).Normalized([][]int32{ids.Roots(f)})[0]
	}
	return out
}

// TestPredictBatchMatchesPredict is the batched-vs-sequential parity property
// test: over random networks, random forests (including empty ones), shared
// and distinct query vectors, a batch of forests scored by one Scorer per
// query vector must be within 1e-5 relative of the per-sample reference
// refPredictNormalized in normalised space (Normalized), and Score must be
// its denormalization bit for bit.
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
		forests := make([][]*reftest.Tree, batch)
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
		done := make([]bool, batch)
		for i, q := range queries {
			if done[i] {
				continue
			}
			// One scorer per query vector, over the forests that share it.
			var group []int
			var fs [][]*reftest.Tree
			for j := i; j < batch; j++ {
				if !done[j] && sameSlice(queries[j], q) {
					group, fs, done[j] = append(group, j), append(fs, forests[j]), true
				}
			}
			var ids, again reftest.IDs
			gotN := snap.NewScorer(q, &ids).Normalized(ids.Forests(fs))
			got := snap.NewScorer(q, &again).Score(again.Forests(fs))
			if len(got) != len(group) || len(gotN) != len(group) {
				t.Fatalf("seed %d: scored %d/%d results, want %d", seed, len(got), len(gotN), len(group))
			}
			for k, j := range group {
				if want := net.refPredictNormalized(q, forests[j]); relErr(gotN[k], want) > 1e-5 {
					t.Errorf("seed %d sample %d (normalized): batch %v, sequential %v (rel err %g)", seed, j, gotN[k], want, relErr(gotN[k], want))
				}
				if want := net.denormalize(gotN[k]); math.Float64bits(got[k]) != math.Float64bits(want) {
					t.Errorf("seed %d sample %d: Score %v != denormalized %v", seed, j, got[k], want)
				}
			}
		}
	}
}

// TestPredictBatchEmpty: a call without forests scores nothing.
func TestPredictBatchEmpty(t *testing.T) {
	snap := New(4, 3, DefaultConfig()).Snapshot()
	var ids reftest.IDs
	if out := snap.NewScorer(make([]float64, 4), &ids).Score(nil); out != nil {
		t.Fatalf("Score(nil) = %v, want nil", out)
	}
}

// TestPredictBatchConcurrent scores on one shared snapshot, and over one
// shared id space, from many goroutines with a scorer each (PlanAll plans
// independent queries over one shared network); run with -race to detect
// unsynchronised state.
func TestPredictBatchConcurrent(t *testing.T) {
	const queryDim, planDim = 6, 5
	snap := New(queryDim, planDim, DefaultConfig()).Snapshot()
	rng := rand.New(rand.NewSource(7))
	queries := make([][]float64, 16)
	var ids reftest.IDs
	forests := make([][]int32, 16)
	for i := range queries {
		queries[i] = randVec(rng, queryDim)
		forests[i] = ids.Roots(randForest(rng, planDim))
	}
	score := func() []float64 {
		out := make([]float64, len(queries))
		for i, q := range queries {
			out[i] = snap.NewScorer(q, &ids).Score(forests[i : i+1])[0]
		}
		return out
	}
	want := score()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got := score()
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("concurrent scoring diverged at %d: %v != %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

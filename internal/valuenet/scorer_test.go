package valuenet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// The scorer's contract is that a score does not depend on what its memo
// holds, so these tests compare bits: every Score call of a search-long
// scorer against a fresh scorer on deep copies of the same forests — which
// share no pointers, so nothing is recalled and every node is convolved from
// scratch — at every precision a snapshot can score with.

// scorerPrecisions runs fn for a float64 snapshot, a float32 snapshot on the
// assembly kernel (where the CPU has one) and a float32 snapshot on the
// portable kernel.
func scorerPrecisions(t *testing.T, net *Network, fn func(t *testing.T, snap *Snapshot)) {
	t.Run("f64", func(t *testing.T) { fn(t, net.SnapshotPrecision(PrecisionFloat64)) })
	t.Run("f32", func(t *testing.T) { fn(t, net.SnapshotPrecision(PrecisionFloat32)) })
	t.Run("f32-scalar", func(t *testing.T) {
		defer nn.SetScalarGemmForTest(nn.SetScalarGemmForTest(true))
		fn(t, net.SnapshotPrecision(PrecisionFloat32))
	})
}

// searchLikeCalls builds what a search hands a scorer: a growing pool of
// subtrees in which new trees join earlier ones (so forests share subtrees by
// pointer, at every depth), cut into Score calls of mixed size. The forests
// include one-child nodes, nil trees, empty forests and forests repeated
// within a call and across calls.
func searchLikeCalls(rng *rand.Rand, planDim, calls int) [][][]*treeconv.Tree {
	var pool []*treeconv.Tree
	for i := 0; i < 6; i++ {
		pool = append(pool, treeconv.NewLeaf(randVec(rng, planDim)))
	}
	pick := func() *treeconv.Tree { return pool[rng.Intn(len(pool))] }
	grow := func() {
		switch rng.Intn(8) {
		case 0: // one child, left
			pool = append(pool, treeconv.NewNode(randVec(rng, planDim), pick(), nil))
		case 1: // one child, right
			pool = append(pool, treeconv.NewNode(randVec(rng, planDim), nil, pick()))
		case 2: // a fresh tree sharing nothing
			pool = append(pool, randTree(rng, 1+rng.Intn(7), planDim))
		default: // a join of two earlier subtrees (possibly the same one twice)
			pool = append(pool, treeconv.NewNode(randVec(rng, planDim), pick(), pick()))
		}
	}
	out := make([][][]*treeconv.Tree, calls)
	for c := range out {
		forests := make([][]*treeconv.Tree, rng.Intn(9)) // 0 is the empty call
		for fi := range forests {
			grow()
			switch {
			case fi > 0 && rng.Intn(6) == 0: // repeated within the call
				forests[fi] = forests[rng.Intn(fi)]
			case c > 0 && len(out[c-1]) > 0 && rng.Intn(6) == 0: // repeated across calls
				forests[fi] = out[c-1][rng.Intn(len(out[c-1]))]
			default:
				f := make([]*treeconv.Tree, rng.Intn(5)) // 0 is the empty forest
				for i := range f {
					if rng.Intn(7) > 0 { // else stays nil
						f[i] = pick()
					}
				}
				forests[fi] = f
			}
		}
		out[c] = forests
	}
	return out
}

// deepCopy returns forests with every tree node and vector copied, so they
// share no pointers with the originals or with each other.
func deepCopy(forests [][]*treeconv.Tree) [][]*treeconv.Tree {
	out := make([][]*treeconv.Tree, len(forests))
	for i, f := range forests {
		out[i] = make([]*treeconv.Tree, len(f))
		for j, t := range f {
			out[i][j] = t.Map(func(n *treeconv.Tree) []float64 { return append([]float64(nil), n.Data...) })
		}
	}
	return out
}

// checkScorerCalls scores the calls in the given order on one scorer and
// requires every result to be bit-identical to a fresh scorer's on deep
// copies, and to PredictBatch's on the forests themselves. On a finite
// corpus it also holds the from-scratch scores to the per-sample reference
// Network.PredictNormalized: == at float64, within 1e-5 relative at float32.
func checkScorerCalls(t *testing.T, snap *Snapshot, q []float64, calls [][][]*treeconv.Tree, order []int, finite bool) *Scorer {
	t.Helper()
	sc := snap.NewScorer(q)
	var queries [][]float64
	for _, c := range order {
		forests := calls[c]
		got := sc.Score(forests)

		fresh := snap.NewScorer(q)
		wantN := fresh.normalized(deepCopy(forests))
		if st := fresh.Stats(); st.Computed != st.Nodes {
			t.Fatalf("call %d: the from-scratch scorer convolved %d of %d nodes; deep copies must share none", c, st.Computed, st.Nodes)
		}
		queries = queries[:0]
		for range forests {
			queries = append(queries, q)
		}
		batch := snap.PredictBatch(queries, forests)
		if len(got) != len(wantN) || (got == nil) != (wantN == nil) || len(batch) != len(wantN) {
			t.Fatalf("call %d: Score returned %d scores (nil=%v), PredictBatch %d, the fresh scorer %d (nil=%v)",
				c, len(got), got == nil, len(batch), len(wantN), wantN == nil)
		}
		for i, n := range wantN {
			want := snap.net.denormalize(n)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("call %d forest %d: Score %v (%#x) != from scratch %v (%#x)",
					c, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
			if math.Float64bits(batch[i]) != math.Float64bits(want) {
				t.Fatalf("call %d forest %d: PredictBatch %v (%#x) != from scratch %v (%#x)",
					c, i, batch[i], math.Float64bits(batch[i]), want, math.Float64bits(want))
			}
			if !finite {
				continue
			}
			ref := snap.net.PredictNormalized(q, forests[i])
			if snap.Precision() == PrecisionFloat64 && n != ref {
				t.Fatalf("call %d forest %d: from scratch %v != per-sample %v", c, i, n, ref)
			}
			if rel := math.Abs(n-ref) / math.Max(1, math.Abs(ref)); rel > 1e-5 {
				t.Fatalf("call %d forest %d: from scratch %v, per-sample %v (rel err %g)", c, i, n, ref, rel)
			}
		}
	}
	return sc
}

// TestScorerMatchesPredictBatch is the property test of the contract, over
// layer widths that are and are not multiples of the kernels' 4- and 8-wide
// tiles, a single-layer stack, and MLPs with and without layer norm. Each
// corpus is scored twice on one scorer, forwards and backwards, so the memo
// holds different records when a forest is scored again.
func TestScorerMatchesPredictBatch(t *testing.T) {
	shapes := []struct {
		name              string
		queryDim, planDim int
		query, tree, head []int
		layerNorm         bool
	}{
		{"default", 9, 7, []int{64, 32}, []int{32, 32, 16}, []int{32, 16}, true},
		{"55-7-6", 11, 50, []int{9, 5}, []int{7, 6}, []int{5}, false},
		{"13-9-5-3", 6, 10, []int{3}, []int{9, 5, 3}, []int{7, 2}, true},
		{"single-layer", 5, 6, []int{4}, []int{6}, []int{3}, false},
	}
	for si, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.QueryLayers, cfg.TreeChannels, cfg.HeadLayers = sh.query, sh.tree, sh.head
			cfg.UseLayerNorm = sh.layerNorm
			cfg.Seed = int64(40 + si)
			net := New(sh.queryDim, sh.planDim, cfg)
			net.FitTargetTransform([]float64{1, 10, 100, 1000, 12345})
			scorerPrecisions(t, net, func(t *testing.T, snap *Snapshot) {
				for seed := int64(0); seed < 4; seed++ {
					rng := rand.New(rand.NewSource(seed))
					q := randVec(rng, sh.queryDim)
					calls := searchLikeCalls(rng, sh.planDim, 40)
					forward := make([]int, len(calls))
					backward := make([]int, len(calls))
					for i := range calls {
						forward[i], backward[i] = i, len(calls)-1-i
					}
					sc := checkScorerCalls(t, snap, q, calls, forward, true)
					checkScorerCalls(t, snap, q, calls, backward, true)

					st := sc.Stats()
					if st.Computed == 0 || st.Computed >= st.Nodes {
						t.Fatalf("seed %d: convolved %d of %d nodes; the corpus is meant to share subtrees", seed, st.Computed, st.Nodes)
					}
				}
			})
		})
	}
}

// TestScorerStats pins what the counters count on a hand-built case.
func TestScorerStats(t *testing.T) {
	const queryDim, planDim = 4, 3
	net := New(queryDim, planDim, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	a, b, c := treeconv.NewLeaf(randVec(rng, planDim)), treeconv.NewLeaf(randVec(rng, planDim)), treeconv.NewLeaf(randVec(rng, planDim))
	ab := treeconv.NewNode(randVec(rng, planDim), a, b)
	sc := net.Snapshot().NewScorer(randVec(rng, queryDim))

	sc.Score([][]*treeconv.Tree{{a, b, c}, {ab, c}})
	if got, want := sc.Stats(), (ScorerStats{Plans: 2, Nodes: 7, Computed: 4}); got != want {
		t.Fatalf("after the first call: %+v, want %+v", got, want)
	}
	abc := treeconv.NewNode(randVec(rng, planDim), ab, c)
	sc.Score([][]*treeconv.Tree{{abc}, {ab, c}, {}})
	if got, want := sc.Stats(), (ScorerStats{Plans: 5, Nodes: 16, Computed: 5}); got != want {
		t.Fatalf("after the second call: %+v, want %+v", got, want)
	}
}

// TestScorerNonFiniteActivations scales the convolution weights until the
// recorded activations hold ±Inf and NaN. Dynamic pooling skips NaN, maps a
// channel that is −Inf everywhere to 0, and resolves equal maxima by visiting
// order; the scorer folds maxima per subtree instead of per forest and must
// still reproduce all of it bit for bit.
func TestScorerNonFiniteActivations(t *testing.T) {
	const queryDim, planDim = 9, 7
	for _, scale := range []float64{1e14, 1e110, 1e200} {
		t.Run(fmt.Sprintf("x%g", scale), func(t *testing.T) {
			net := New(queryDim, planDim, DefaultConfig())
			for _, p := range net.conv.Params() {
				for i := range p.Value {
					p.Value[i] *= scale
				}
			}
			scorerPrecisions(t, net, func(t *testing.T, snap *Snapshot) {
				rng := rand.New(rand.NewSource(3))
				q := randVec(rng, queryDim)
				calls := searchLikeCalls(rng, planDim, 30)
				order := make([]int, len(calls))
				for i := range order {
					order[i] = i
				}
				sc := checkScorerCalls(t, snap, q, calls, order, false)

				var inf, nan bool
				scan := func(v float64) {
					inf = inf || math.IsInf(v, 0)
					nan = nan || math.IsNaN(v)
				}
				if sc.f32 != nil {
					for _, chunk := range sc.f32.slab {
						for _, v := range chunk {
							scan(float64(v))
						}
					}
				} else {
					for _, chunk := range sc.f64.slab {
						for _, v := range chunk {
							scan(v)
						}
					}
				}
				// ×1e14 overflows float32 at the third layer and leaves float64
				// finite; the larger scales overflow both.
				if !inf && !nan && (scale > 1e100 || sc.f32 != nil) {
					t.Fatalf("weights ×%g left every recorded activation finite; the test did not reach the regime it is for", scale)
				}
				t.Logf("records hold Inf=%v NaN=%v", inf, nan)
			})
		})
	}
}

// TestScorerPanicsOnDimensionMismatch: the scorer checks the encodings'
// dimensions.
func TestScorerPanicsOnDimensionMismatch(t *testing.T) {
	net := New(4, 3, DefaultConfig())
	snap := net.Snapshot()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short query vector", func() { snap.NewScorer(make([]float64, 3)) })
	mustPanic("long plan vector", func() {
		snap.NewScorer(make([]float64, 4)).Score([][]*treeconv.Tree{{treeconv.NewLeaf(make([]float64, 5))}})
	})
}

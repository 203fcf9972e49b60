package valuenet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"neo/internal/nn"
	"neo/internal/reftest"
)

// The scorer's contract is that a score does not depend on what its records
// hold, so these tests compare bits: every Score call of a search-long
// scorer against a fresh scorer on deep copies of the same forests — which
// share no pointers, so no two of their nodes get one id in the copies' id
// space, nothing is recalled and every node is convolved from scratch — on
// both GEMM kernels.

// eachKernel runs fn for a snapshot scoring on the assembly kernel (where
// the CPU has one) and on the portable kernel.
func eachKernel(t *testing.T, net *Network, fn func(t *testing.T, snap *Snapshot)) {
	t.Run("f32", func(t *testing.T) { fn(t, net.Snapshot()) })
	t.Run("f32-scalar", func(t *testing.T) {
		defer nn.SetScalarKernelsForTest(nn.SetScalarKernelsForTest(true))
		fn(t, net.Snapshot())
	})
}

// searchLikeCalls builds what a search hands a scorer: a growing pool of
// subtrees in which new trees join earlier ones (so forests share subtrees by
// pointer, at every depth), cut into Score calls of mixed size. The forests
// include joins over the same subtree twice, empty forests and forests
// repeated within a call and across calls.
func searchLikeCalls(rng *rand.Rand, planDim, calls int) [][][]*reftest.Tree {
	var pool []*reftest.Tree
	for i := 0; i < 6; i++ {
		pool = append(pool, reftest.Leaf(randVec(rng, planDim)))
	}
	pick := func() *reftest.Tree { return pool[rng.Intn(len(pool))] }
	grow := func() {
		switch rng.Intn(8) {
		case 0: // a fresh leaf
			pool = append(pool, reftest.Leaf(randVec(rng, planDim)))
		case 1: // a fresh tree sharing nothing
			pool = append(pool, reftest.RandomTree(rng, 1+rng.Intn(4), planDim))
		default: // a join of two earlier subtrees (possibly the same one twice)
			pool = append(pool, reftest.Join(randVec(rng, planDim), pick(), pick()))
		}
	}
	out := make([][][]*reftest.Tree, calls)
	for c := range out {
		forests := make([][]*reftest.Tree, rng.Intn(9)) // 0 is the empty call
		for fi := range forests {
			grow()
			switch {
			case fi > 0 && rng.Intn(6) == 0: // repeated within the call
				forests[fi] = forests[rng.Intn(fi)]
			case c > 0 && len(out[c-1]) > 0 && rng.Intn(6) == 0: // repeated across calls
				forests[fi] = out[c-1][rng.Intn(len(out[c-1]))]
			default:
				f := make([]*reftest.Tree, rng.Intn(5)) // 0 is the empty forest
				for i := range f {
					f[i] = pick()
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
func deepCopy(forests [][]*reftest.Tree) [][]*reftest.Tree {
	out := make([][]*reftest.Tree, len(forests))
	for i, f := range forests {
		out[i] = make([]*reftest.Tree, len(f))
		for j, t := range f {
			out[i][j] = t.Map(func(n *reftest.Tree) []float64 { return append([]float64(nil), n.Data...) })
		}
	}
	return out
}

// checkScorerCalls scores the calls in the given order on one scorer over
// one id space and requires every result to be bit-identical to a fresh
// scorer's on deep copies. On a finite corpus it also holds the from-scratch
// scores to within 1e-5 relative of the per-sample float64 reference:
// refPredictNormalized on net, the network snap was frozen from.
func checkScorerCalls(t *testing.T, net *Network, snap *Snapshot, q []float64, calls [][][]*reftest.Tree, order []int, finite bool) *Scorer {
	t.Helper()
	var ids reftest.IDs
	sc := snap.NewScorer(q, &ids)
	for _, c := range order {
		forests := calls[c]
		got := sc.Score(ids.Forests(forests))

		var freshIDs reftest.IDs
		fresh := snap.NewScorer(q, &freshIDs)
		wantN := fresh.Normalized(freshIDs.Forests(deepCopy(forests)))
		if st := fresh.Stats(); st.Computed != st.Nodes {
			t.Fatalf("call %d: the from-scratch scorer convolved %d of %d nodes; deep copies must share none", c, st.Computed, st.Nodes)
		}
		if len(got) != len(wantN) || (got == nil) != (wantN == nil) {
			t.Fatalf("call %d: Score returned %d scores (nil=%v), the fresh scorer %d (nil=%v)",
				c, len(got), got == nil, len(wantN), wantN == nil)
		}
		for i, n := range wantN {
			want := net.denormalize(n)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("call %d forest %d: Score %v (%#x) != from scratch %v (%#x)",
					c, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
			if !finite {
				continue
			}
			ref := net.refPredictNormalized(q, forests[i])
			if rel := relErr(n, ref); rel > 1e-5 {
				t.Fatalf("call %d forest %d: from scratch %v, per-sample %v (rel err %g)", c, i, n, ref, rel)
			}
		}
	}
	return sc
}

// TestScorerMatchesPredictBatch is the property test of the contract — a
// search-long scorer's scores are those of from-scratch batch prediction —
// over
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
			eachKernel(t, net, func(t *testing.T, snap *Snapshot) {
				for seed := int64(0); seed < 4; seed++ {
					rng := rand.New(rand.NewSource(seed))
					q := randVec(rng, sh.queryDim)
					calls := searchLikeCalls(rng, sh.planDim, 40)
					forward := make([]int, len(calls))
					backward := make([]int, len(calls))
					for i := range calls {
						forward[i], backward[i] = i, len(calls)-1-i
					}
					sc := checkScorerCalls(t, net, snap, q, calls, forward, true)
					checkScorerCalls(t, net, snap, q, calls, backward, true)

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
	a, b, c := reftest.Leaf(randVec(rng, planDim)), reftest.Leaf(randVec(rng, planDim)), reftest.Leaf(randVec(rng, planDim))
	ab := reftest.Join(randVec(rng, planDim), a, b)
	var ids reftest.IDs
	sc := net.Snapshot().NewScorer(randVec(rng, queryDim), &ids)

	sc.Score(ids.Forests([][]*reftest.Tree{{a, b, c}, {ab, c}}))
	if got, want := sc.Stats(), (ScorerStats{Plans: 2, Nodes: 7, Computed: 4}); got != want {
		t.Fatalf("after the first call: %+v, want %+v", got, want)
	}
	abc := reftest.Join(randVec(rng, planDim), ab, c)
	sc.Score(ids.Forests([][]*reftest.Tree{{abc}, {ab, c}, {}}))
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
			eachKernel(t, net, func(t *testing.T, snap *Snapshot) {
				rng := rand.New(rand.NewSource(3))
				q := randVec(rng, queryDim)
				calls := searchLikeCalls(rng, planDim, 30)
				order := make([]int, len(calls))
				for i := range order {
					order[i] = i
				}
				sc := checkScorerCalls(t, net, snap, q, calls, order, false)

				var inf, nan bool
				scan := func(v float64) {
					inf = inf || math.IsInf(v, 0)
					nan = nan || math.IsNaN(v)
				}
				for _, chunk := range sc.slab {
					for _, v := range chunk {
						scan(float64(v))
					}
				}
				// ×1e14 overflows float32 at the third layer.
				if !inf && !nan {
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
	var ids reftest.IDs
	mustPanic("short query vector", func() { snap.NewScorer(make([]float64, 3), &ids) })
	mustPanic("long plan vector", func() {
		snap.NewScorer(make([]float64, 4), &ids).Score(ids.Forests([][]*reftest.Tree{{reftest.Leaf(make([]float64, 5))}}))
	})
}

// TestScorerPoolingTiesKeepFirstRoot: when two roots of a forest tie in a
// pooled channel — +0 against −0 — the first root keeps the channel, on the
// vector kernel and on the Go loop, whichever order the roots come in; and a
// join child scored as an edit of its parent pools as its own forest does,
// even where its parent's first root — one the child joined away — held the
// other zero.
func TestScorerPoolingTiesKeepFirstRoot(t *testing.T) {
	const queryDim, planDim = 4, 3
	net := New(queryDim, planDim, DefaultConfig())
	negZero := float32(math.Copysign(0, -1))
	eachKernel(t, net, func(t *testing.T, snap *Snapshot) {
		rng := rand.New(rand.NewSource(5))
		var ids reftest.IDs
		sc := snap.NewScorer(randVec(rng, queryDim), &ids)
		ab := ids.Roots([]*reftest.Tree{reftest.Leaf(randVec(rng, planDim)), reftest.Leaf(randVec(rng, planDim))})
		sc.Score([][]int32{ab})
		// Overwrite the two records' pooled maxima with ties, alternating
		// which root holds +0.
		last := len(sc.width) - 1
		a, b := sc.slot(ab[0], last), sc.slot(ab[1], last)
		for c := range a {
			a[c], b[c] = 0, negZero
			if c%2 == 1 {
				a[c], b[c] = negZero, 0
			}
		}
		for _, roots := range [][]int32{{ab[0], ab[1]}, {ab[1], ab[0]}} {
			sc.Normalized([][]int32{roots})
			first := sc.slot(roots[0], last)
			for c, v := range sc.pooled {
				if math.Float32bits(v) != math.Float32bits(first[c]) {
					t.Fatalf("roots %v channel %d: pooled %v, the first root holds %v", roots, c, v, first[c])
				}
			}
		}

		// Parent [A, B, C]; its child joins A and B into N: [C, N]. A and N
		// hold one zero, C the other, B less: the parent pools A's zero, the
		// child C's.
		ta, tb, tc := reftest.Leaf(randVec(rng, planDim)), reftest.Leaf(randVec(rng, planDim)), reftest.Leaf(randVec(rng, planDim))
		parent := ids.Roots([]*reftest.Tree{ta, tb, tc})
		child := ids.Roots([]*reftest.Tree{tc, reftest.Join(randVec(rng, planDim), ta, tb)})
		sc.Score([][]int32{parent, child})
		for ch := range sc.slot(child[1], last) {
			plus, minus := float32(0), negZero
			if ch%2 == 1 {
				plus, minus = minus, plus
			}
			sc.slot(parent[0], last)[ch], sc.slot(child[1], last)[ch] = plus, plus
			sc.slot(parent[1], last)[ch] = -1
			sc.slot(parent[2], last)[ch] = minus
		}
		edited := sc.ScoreEdits(parent, []Edit{{I: 0, J: 1, Root: child[1]}})
		pooled := slices.Clone(sc.pooled)
		whole := sc.Score([][]int32{child})
		first := sc.slot(child[0], last)
		for ch, v := range pooled {
			if math.Float32bits(v) != math.Float32bits(sc.pooled[ch]) || math.Float32bits(v) != math.Float32bits(first[ch]) {
				t.Fatalf("channel %d: the edited child pools %v, its forest %v, its first root holds %v", ch, v, sc.pooled[ch], first[ch])
			}
		}
		if math.Float64bits(edited[0]) != math.Float64bits(whole[0]) {
			t.Fatalf("the edited child scores %v, its forest %v", edited[0], whole[0])
		}
	})
}

// TestScoreEditsMatchesScore: the children of search-like forests — every
// scan-like replacement and every join of two roots — score through
// ScoreEdits bit for bit as their forests score through Score, on both
// kernel sets.
func TestScoreEditsMatchesScore(t *testing.T) {
	const queryDim, planDim = 6, 5
	net := New(queryDim, planDim, DefaultConfig())
	eachKernel(t, net, func(t *testing.T, snap *Snapshot) {
		rng := rand.New(rand.NewSource(9))
		qv := randVec(rng, queryDim)
		var ids reftest.IDs
		edits, whole := snap.NewScorer(qv, &ids), snap.NewScorer(qv, &ids)
		for _, call := range searchLikeCalls(rng, planDim, 40) {
			for _, forest := range call {
				if len(forest) == 0 {
					continue
				}
				parent := ids.Roots(forest)
				var es []Edit
				var children [][]int32
				for i := range forest {
					leaf := reftest.Leaf(randVec(rng, planDim))
					es = append(es, Edit{I: int32(i), J: -1, Root: ids.ID(leaf)})
					children = append(children, slices.Clone(parent))
					children[len(children)-1][i] = ids.ID(leaf)
					for j := i + 1; j < len(forest); j++ {
						join := reftest.Join(randVec(rng, planDim), forest[j], forest[i])
						es = append(es, Edit{I: int32(i), J: int32(j), Root: ids.ID(join)})
						var roots []int32
						for k, id := range parent {
							if k != i && k != j {
								roots = append(roots, id)
							}
						}
						children = append(children, append(roots, ids.ID(join)))
					}
				}
				got, want := edits.ScoreEdits(parent, es), whole.Score(children)
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("child %d %v of %v: ScoreEdits %v, Score %v", k, children[k], parent, got[k], want[k])
					}
				}
			}
		}
		if st, ws := edits.Stats(), whole.Stats(); st.Plans != ws.Plans || st.Nodes != ws.Nodes {
			t.Fatalf("ScoreEdits counted %d plans / %d nodes, Score %d / %d", st.Plans, st.Nodes, ws.Plans, ws.Nodes)
		}
	})
}

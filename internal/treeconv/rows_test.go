package treeconv

import (
	"math"
	"math/rand"
	"testing"

	"neo/internal/nn"
	"neo/internal/reftest"
)

// layerRows gathers the nodes of forest (in pre-order) the way a scorer
// hands them to ForwardRows — leaves as [x], joins as [x; left; right] —
// and returns the rows plus the nodes in ForwardRows' output order: leaves
// first.
func layerRows(forest []*reftest.Tree) (leaf, full []float64, order []*reftest.Tree) {
	var leaves, inner []*reftest.Tree
	for _, t := range forest {
		t.Walk(func(n *reftest.Tree) {
			if n.Left == nil {
				leaves = append(leaves, n)
				leaf = append(leaf, n.Data...)
				return
			}
			inner = append(inner, n)
			full = append(full, n.Data...)
			full = append(full, n.Left.Data...)
			full = append(full, n.Right.Data...)
		})
	}
	return leaf, full, append(leaves, inner...)
}

func toF32(xs []float64) []float32 {
	out := make([]float32, len(xs))
	for i, v := range xs {
		out[i] = float32(v)
	}
	return out
}

// eachLayerRows builds a stack and forests with leaves, joins over a leaf
// (on either side) and joins over joins, and calls check for every corpus
// and layer k with the layer's gathered input rows and want, the per-tree
// reference convolution's activation of each node in ForwardRows' output
// order. Layer widths are not multiples of the kernels' 4- and 8-wide tiles.
func eachLayerRows(t *testing.T, check func(t *testing.T, stack *Stack, k int, leaf, full []float64, want []*reftest.Tree)) {
	rng := rand.New(rand.NewSource(21))
	const dim = 6
	stack := NewStack([]int{dim, 10, 7, 4}, rng)
	corpora := map[string][]*reftest.Tree{
		"mixed": append(randomForest(rng, 5, dim),
			reftest.Join(reftest.RandomTree(rng, 1, dim).Data, reftest.RandomTree(rng, 3, dim), reftest.RandomTree(rng, 1, dim)),
			reftest.Join(reftest.RandomTree(rng, 1, dim).Data, reftest.RandomTree(rng, 1, dim), reftest.RandomTree(rng, 2, dim))),
		"leaves only": {reftest.Leaf(make([]float64, dim)), reftest.RandomTree(rng, 1, dim)},
		"no rows":     nil,
	}
	for name, forest := range corpora {
		t.Run(name, func(t *testing.T) {
			cur := forest // the layer's input trees
			for k, l := range stack.Layers {
				next := make([]*reftest.Tree, len(cur))
				for i, tr := range cur {
					next[i] = refLayer(l).Forward(tr).Out
				}
				leaf, full, _ := layerRows(cur)
				_, _, want := layerRows(next)
				check(t, stack, k, leaf, full, want)
				cur = next
			}
		})
	}
}

// TestForwardBatchMatchesPerTreeForward requires the training tape's leaf
// and join kernels, convLeafPre and convBothPre, to be == to the per-tree
// reference convolution on every node of every layer, row by row.
func TestForwardBatchMatchesPerTreeForward(t *testing.T) {
	eachLayerRows(t, func(t *testing.T, stack *Stack, k int, leaf, full []float64, want []*reftest.Tree) {
		l := stack.Layers[k]
		ic, oc := l.InChannels, l.OutChannels
		out := make([]float64, len(want)*oc)
		o := 0
		for r := 0; r < len(leaf); r += ic {
			l.convLeafPre(leaf[r:r+ic], out[o:o+oc])
			o += oc
		}
		for r := 0; r < len(full); r += 3 * ic {
			l.convBothPre(full[r:r+ic], full[r+ic:r+2*ic], full[r+2*ic:r+3*ic], out[o:o+oc])
			o += oc
		}
		nn.LeakyInPlace(out, l.Act.Alpha)
		for r, n := range want {
			for c, w := range n.Data {
				if got := out[r*oc+c]; got != w {
					t.Fatalf("layer %d row %d channel %d: kernels %v, reference %v", k, r, c, got, w)
				}
			}
		}
	})
}

// TestStackF32MatchesFloat64 requires StackF32.ForwardRows, through the
// packed float32 panels on both GEMM kernels, to stay within 1e-5 relative
// of the float64 per-tree reference on every node of every layer.
func TestStackF32MatchesFloat64(t *testing.T) {
	eachLayerRows(t, func(t *testing.T, stack *Stack, k int, leaf, full []float64, want []*reftest.Tree) {
		stack32 := NewStackF32(stack)
		oc := stack.Layers[k].OutChannels
		for _, scalar := range []bool{false, true} {
			prev := nn.SetScalarKernelsForTest(scalar)
			out32 := make([]float32, len(want)*oc)
			stack32.ForwardRows(k, toF32(leaf), toF32(full), out32)
			nn.SetScalarKernelsForTest(prev)
			for r, n := range want {
				for c, w := range n.Data {
					got := float64(out32[r*oc+c])
					if e := math.Abs(got-w) / math.Max(1, math.Abs(w)); e > 1e-5 {
						t.Fatalf("scalar=%v layer %d row %d channel %d: f32 %v, f64 %v (rel err %g)", scalar, k, r, c, got, w, e)
					}
				}
			}
		}
	})
}

// BenchmarkStackForward times the row kernel through every layer of the
// stack over a 15-node balanced tree's gathered rows, as a scorer convolving
// the tree from scratch runs them.
func BenchmarkStackForward(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	stack := NewStack([]int{32, 64, 64, 32}, rng)
	var build func(depth int) *reftest.Tree
	build = func(depth int) *reftest.Tree {
		data := make([]float64, 32)
		for i := range data {
			data[i] = rng.Float64()
		}
		if depth == 0 {
			return reftest.Leaf(data)
		}
		return reftest.Join(data, build(depth-1), build(depth-1))
	}
	tr := build(3)
	var leaf, full, out [][]float32
	for _, l := range stack.Layers {
		lf, fl, order := layerRows([]*reftest.Tree{tr})
		leaf, full = append(leaf, toF32(lf)), append(full, toF32(fl))
		out = append(out, make([]float32, len(order)*l.OutChannels))
		tr = refLayer(l).Forward(tr).Out
	}
	stack32 := NewStackF32(stack)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range stack32.Layers {
			stack32.ForwardRows(k, leaf[k], full[k], out[k])
		}
	}
}

package treeconv

import (
	"math"
	"math/rand"
	"testing"

	"neo/internal/nn"
)

// layerRows gathers the nodes of forest (in pre-order) the way a scorer
// hands them to ForwardRows — childless nodes as [x], the others as
// [x; left; right] with zeros for an absent child — and returns the rows
// plus the nodes in ForwardRows' output order: leaves first.
func layerRows(forest []*Tree, in int) (leaf, full []float64, order []*Tree) {
	var leaves, inner []*Tree
	for _, t := range forest {
		t.Walk(func(n *Tree) {
			if n.Left == nil && n.Right == nil {
				leaves = append(leaves, n)
				leaf = append(leaf, n.Data...)
				return
			}
			inner = append(inner, n)
			full = append(full, n.Data...)
			full = append(full, zerosIfNil(n.Left, in)...)
			full = append(full, zerosIfNil(n.Right, in)...)
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

// eachLayerRows builds a stack and forests with leaves, one-child nodes (left
// and right) and joins, and calls check for every corpus and layer k with the
// layer's gathered input rows and want, the per-tree reference
// Layer.Forward's activation of each node in ForwardRows' output order.
// Layer widths are not multiples of the kernels' 4- and 8-wide tiles.
func eachLayerRows(t *testing.T, check func(t *testing.T, stack *Stack, k int, leaf, full []float64, want []*Tree)) {
	rng := rand.New(rand.NewSource(21))
	const dim = 6
	stack := NewStack([]int{dim, 10, 7, 4}, rng)
	corpora := map[string][]*Tree{
		"mixed": append(randomForest(rng, 5, dim),
			NewNode(randomTree(rng, 1, dim).Data, randomTree(rng, 4, dim), nil),
			NewNode(randomTree(rng, 1, dim).Data, nil, randomTree(rng, 3, dim))),
		"leaves only": {NewLeaf(make([]float64, dim)), randomTree(rng, 1, dim)},
		"no rows":     nil,
	}
	for name, forest := range corpora {
		t.Run(name, func(t *testing.T) {
			cur := forest // the layer's input trees
			for k, l := range stack.Layers {
				next := make([]*Tree, len(cur))
				for i, tr := range cur {
					next[i] = l.Forward(tr).Output()
				}
				leaf, full, _ := layerRows(cur, l.InChannels)
				_, _, want := layerRows(next, l.OutChannels)
				check(t, stack, k, leaf, full, want)
				cur = next
			}
		})
	}
}

// TestForwardBatchMatchesPerTreeForward requires the training tape's leaf
// and join kernels, convLeafPre and convBothPre (a one-child node with a zero
// operand), to be == to the per-tree reference Layer.Forward on every node
// of every layer, row by row.
func TestForwardBatchMatchesPerTreeForward(t *testing.T) {
	eachLayerRows(t, func(t *testing.T, stack *Stack, k int, leaf, full []float64, want []*Tree) {
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
					t.Fatalf("layer %d row %d channel %d: kernels %v, Layer.Forward %v", k, r, c, got, w)
				}
			}
		}
	})
}

// TestStackF32MatchesFloat64 requires StackF32.ForwardRows, through the
// packed float32 panels on both GEMM kernels, to stay within 1e-5 relative
// of the float64 per-tree reference on every node of every layer.
func TestStackF32MatchesFloat64(t *testing.T) {
	eachLayerRows(t, func(t *testing.T, stack *Stack, k int, leaf, full []float64, want []*Tree) {
		stack32 := NewStackF32(stack)
		oc := stack.Layers[k].OutChannels
		for _, scalar := range []bool{false, true} {
			prev := nn.SetScalarGemmForTest(scalar)
			out32 := make([]float32, len(want)*oc)
			stack32.ForwardRows(k, toF32(leaf), toF32(full), out32)
			nn.SetScalarGemmForTest(prev)
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
	var build func(depth int) *Tree
	build = func(depth int) *Tree {
		data := make([]float64, 32)
		for i := range data {
			data[i] = rng.Float64()
		}
		if depth == 0 {
			return NewLeaf(data)
		}
		return NewNode(data, build(depth-1), build(depth-1))
	}
	tr := build(3)
	var leaf, full, out [][]float32
	for _, l := range stack.Layers {
		lf, fl, order := layerRows([]*Tree{tr}, l.InChannels)
		leaf, full = append(leaf, toF32(lf)), append(full, toF32(fl))
		out = append(out, make([]float32, len(order)*l.OutChannels))
		tr = l.Forward(tr).Output()
	}
	stack32 := NewStackF32(stack)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range stack32.Layers {
			stack32.ForwardRows(k, leaf[k], full[k], out[k])
		}
	}
}

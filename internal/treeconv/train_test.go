package treeconv

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"neo/internal/nn"
	"neo/internal/reftest"
)

// buildTable numbers every forest's trees in one id space, adds their roots
// to tab under group 0 and returns the entries' rows — copies of their trees'
// vectors, as the parity tests need the raw node vectors (no spatial
// replication) — and each forest's roots.
func buildTable(tab *Subtrees, forests [][]*reftest.Tree, dim int) (rows []float64, roots [][]int32) {
	tab.Reset()
	var ids reftest.IDs
	roots = make([][]int32, len(forests))
	for s, f := range forests {
		for _, tree := range f {
			roots[s] = append(roots[s], tab.Add(&ids, ids.ID(tree), 0))
		}
	}
	rows = make([]float64, tab.Len()*dim)
	for e, row := range tab.Row {
		copy(rows[e*dim:], row)
	}
	return rows, roots
}

// TestForwardBatchTapeMatchesForward asserts the training forward pass
// (RecordBatch) is bit-identical to the per-tree Forward, layer by layer.
func TestForwardBatchTapeMatchesForward(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const dim = 5
		stack := NewStack([]int{dim, 9, 4}, rng)
		forests := make([][]*reftest.Tree, 6)
		for i := range forests {
			forests[i] = randomForest(rng, rng.Intn(3)+1, dim)
		}

		var tab Subtrees
		var arena nn.Arena[float64]
		rows, _ := buildTable(&tab, forests, dim)
		var tape StackBatchTape
		stack.RecordBatch(&tape, &tab, rows, &arena)
		out := tape.Output()
		oc := stack.Layers[len(stack.Layers)-1].OutChannels

		// The forests share nothing, so the table's pre-order is the nodes'.
		node := 0
		for _, f := range forests {
			for _, tree := range f {
				ref := refStack(stack).Forward(tree)
				ref.Output().Walk(func(n *reftest.Tree) {
					row := int(tab.Pre[node])
					for c, v := range n.Data {
						if got := out[row*oc+c]; got != v {
							t.Errorf("seed %d node %d channel %d: batch %v, per-tree %v", seed, node, c, got, v)
						}
					}
					node++
				})
			}
		}
		if node != tab.Len() {
			t.Fatalf("seed %d: compared %d nodes, table has %d", seed, node, tab.Len())
		}
	}
}

// TestStackBackwardBatchMatchesBackward is the training parity test for the
// convolution stack: a backward pass over a table of forests that share
// nothing must accumulate bit-identical filter gradients and input gradients
// to per-tree Backward calls in the forests' order.
func TestStackBackwardBatchMatchesBackward(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 10))
		const dim = 4
		batched := NewStack([]int{dim, 7, 3}, rand.New(rand.NewSource(seed+30)))
		reference := NewStack([]int{dim, 7, 3}, rand.New(rand.NewSource(seed+30)))

		forests := make([][]*reftest.Tree, 5)
		for i := range forests {
			forests[i] = randomForest(rng, rng.Intn(2)+1, dim)
		}
		var tab Subtrees
		var arena nn.Arena[float64]
		rows, _ := buildTable(&tab, forests, dim)
		var tape StackBatchTape
		batched.RecordBatch(&tape, &tab, rows, &arena)
		outChannels := batched.Layers[len(batched.Layers)-1].OutChannels

		// Random gradients per output row (with zeros mixed in, as dynamic
		// pooling produces).
		gradOut := make([]float64, tab.Len()*outChannels)
		for i := range gradOut {
			if rng.Intn(3) > 0 {
				gradOut[i] = rng.NormFloat64()
			}
		}
		gotGradIn := batched.BackwardBatch(&tape, gradOut, &arena)

		node := 0
		for _, f := range forests {
			for _, tree := range f {
				refTape := refStack(reference).Forward(tree)
				start := node
				var count int
				tree.Walk(func(*reftest.Tree) { count++ })
				// Rebuild this tree's gradient tree from the rows: walk visits
				// the nodes in the table's pre-order.
				i := start
				gradTree := refTape.Output().Map(func(*reftest.Tree) []float64 {
					g := make([]float64, outChannels)
					row := int(tab.Pre[i])
					copy(g, gradOut[row*outChannels:(row+1)*outChannels])
					i++
					return g
				})
				gradIn := refStack(reference).Backward(refTape, gradTree)
				j := start
				gradIn.Walk(func(n *reftest.Tree) {
					row := int(tab.Pre[j])
					for c, v := range n.Data {
						if got := gotGradIn[row*dim+c]; got != v {
							t.Errorf("seed %d node %d channel %d: input grad batch %v, per-tree %v", seed, j, c, got, v)
						}
					}
					j++
				})
				node = start + count
			}
		}

		bp, rp := batched.Params(), reference.Params()
		for pi := range bp {
			for j := range bp[pi].Grad {
				if bp[pi].Grad[j] != rp[pi].Grad[j] {
					t.Errorf("seed %d: %s grad[%d]: batch %v, per-tree %v",
						seed, bp[pi].Name, j, bp[pi].Grad[j], rp[pi].Grad[j])
				}
			}
		}
	}
}

// TestPoolBatchArgmaxMatchesDynamicPool checks PoolBatchTape's pooled
// values and argmax ownership against per-tree reference pooling plus the
// cross-tree strict-greater ownership rule of the per-sample forward pass,
// on forests that share whole trees and subtrees with each other.
func TestPoolBatchArgmaxMatchesDynamicPool(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 6
	stack := NewStack([]int{dim, dim}, rng)
	first := randomForest(rng, 2, dim)
	grown := reftest.RandomTree(rng, 5, dim)
	forests := [][]*reftest.Tree{
		first,
		{},
		randomForest(rng, 3, dim),
		randomForest(rng, 1, dim),
		{first[1], reftest.Join(reftest.RandomTree(rng, 1, dim).Data, grown, first[0])},
		{grown},
	}
	var tab Subtrees
	var arena nn.Arena[float64]
	rows, roots := buildTable(&tab, forests, dim)
	var tape StackBatchTape
	stack.RecordBatch(&tape, &tab, rows, &arena)
	out := tape.Output()
	var pool PoolBatchTape
	pooled := pool.Forward(&tab, out, dim, roots, &arena)

	// under reports whether entry e lies in the subtree of entry root.
	var under func(e, root int32) bool
	under = func(e, root int32) bool {
		return root >= 0 && (e == root || under(e, tab.Left[root]) || under(e, tab.Right[root]))
	}
	for s, f := range forests {
		want := make([]float64, dim)
		for i := range want {
			want[i] = math.Inf(-1)
		}
		for _, tree := range f {
			p, _ := reftest.Pool(refStack(stack).Forward(tree).Output())
			for c, v := range p {
				if v > want[c] {
					want[c] = v
				}
			}
		}
		for c := range want {
			if math.IsInf(want[c], -1) {
				want[c] = 0
				if pool.argmax[s*dim+c] != -1 {
					t.Errorf("forest %d channel %d: empty forest should have argmax -1", s, c)
				}
			}
			if got := pooled[s*dim+c]; got != want[c] {
				t.Errorf("forest %d channel %d: pooled %v, want %v", s, c, got, want[c])
			}
			if n := pool.argmax[s*dim+c]; n >= 0 {
				if !slices.ContainsFunc(roots[s], func(r int32) bool { return under(int32(n), r) }) {
					t.Errorf("forest %d channel %d: argmax row %d is not in the forest", s, c, n)
				}
				if out[n*dim+c] != pooled[s*dim+c] {
					t.Errorf("forest %d channel %d: argmax row value %v != pooled %v", s, c, out[n*dim+c], pooled[s*dim+c])
				}
			}
		}
	}

	// Backward adds each (forest, channel) gradient onto exactly the argmax
	// row, summing where forests share it.
	grad := make([]float64, len(pooled))
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	gradRows := pool.Backward(grad, &arena)
	want := make([]float64, len(gradRows))
	for i, n := range pool.argmax {
		if n >= 0 {
			want[n*dim+i%dim] += grad[i]
		}
	}
	if !slices.Equal(gradRows, want) {
		t.Errorf("scattered gradients %v, want %v", gradRows, want)
	}
}

// TestPackedConvMatchesGoLoops: for every width 1–37 of input and output
// channels, the panel kernels convolve leaves and joins — over leaves, over
// joins, and over one of each on either side — bit-identically to the Go
// loops, over weights and rows holding ±0.
func TestPackedConvMatchesGoLoops(t *testing.T) {
	if !nn.VectorKernels() {
		t.Skip("no AVX2: only the Go loops exist on this host")
	}
	rng := rand.New(rand.NewSource(8))
	signed := func(xs []float64) {
		for i := range xs {
			switch rng.Intn(8) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = rng.NormFloat64()
			}
		}
	}
	leaf := func() *reftest.Tree { return reftest.Leaf(nil) }
	forest := []*reftest.Tree{
		reftest.Join(nil, leaf(), leaf()),
		reftest.Join(nil, leaf(), reftest.Join(nil, leaf(), leaf())),
		reftest.Join(nil, reftest.Join(nil, leaf(), leaf()), leaf()),
	}
	var tab Subtrees
	var ids reftest.IDs
	for _, tr := range forest {
		tab.Add(&ids, ids.ID(tr), 0)
	}
	for ic := 1; ic <= 37; ic++ {
		for oc := 1; oc <= 37; oc++ {
			l := NewLayer(ic, oc, rng)
			for _, p := range l.Params() {
				signed(p.Value)
			}
			in := make([]float64, tab.Len()*ic)
			signed(in)
			conv := func(scalar bool) []float64 {
				pre := make([]float64, tab.Len()*oc)
				defer nn.SetScalarKernelsForTest(nn.SetScalarKernelsForTest(scalar))
				l.convBatchPre(&tab, in, pre)
				return pre
			}
			want := conv(true)
			l.Packed = new(nn.PackedF64)
			l.Pack()
			got := conv(false)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("ic=%d oc=%d: entry %d channel %d: kernel %v, Go loop %v", ic, oc, i/oc, i%oc, got[i], want[i])
				}
			}
		}
	}
}

// TestPoolBatchTiesKeepFirstRoot: when two roots of a forest tie in a
// channel — equal values, or +0 against −0 — the first root in pre-order
// keeps the pooled value and is the row Backward sends the channel's
// gradient to, whichever order the roots come in.
func TestPoolBatchTiesKeepFirstRoot(t *testing.T) {
	const dim = 3
	negZero := math.Copysign(0, -1)
	var tab Subtrees
	var ids reftest.IDs
	a, b := tab.Add(&ids, ids.ID(reftest.Leaf([]float64{1})), 0), tab.Add(&ids, ids.ID(reftest.Leaf([]float64{2})), 0)
	out := []float64{
		0, 2, negZero, // a
		negZero, 2, 0, // b
	}
	var pool PoolBatchTape
	var arena nn.Arena[float64]
	roots := [][]int32{{a, b}, {b, a}}
	pooled := pool.Forward(&tab, out, dim, roots, &arena)
	for s, rs := range roots {
		first := out[int(rs[0])*dim : int(rs[0]+1)*dim]
		for c := 0; c < dim; c++ {
			if got := pooled[s*dim+c]; math.Float64bits(got) != math.Float64bits(first[c]) {
				t.Errorf("roots %v channel %d: pooled %v, the first root holds %v", rs, c, got, first[c])
			}
		}
	}
	grad := pool.Backward([]float64{1, 2, 3, 4, 5, 6}, &arena)
	if want := []float64{1, 2, 3, 4, 5, 6}; !slices.Equal(grad, want) {
		t.Errorf("row gradients %v, want %v: each forest's first root takes its gradient", grad, want)
	}
}

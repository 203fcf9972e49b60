package treeconv

import (
	"math"
	"math/rand"
	"testing"

	"neo/internal/nn"
)

// buildFlatBatch flattens forests with a copy-through fill (no spatial
// replication), as the parity tests need the raw node vectors.
func buildFlatBatch(bb *BatchBuilder[float64], forests [][]*Tree, dim int) *Batch[float64] {
	return bb.Build(forests, dim, func(_ int, node *Tree, row []float64) {
		copy(row, node.Data)
	})
}

// TestForwardBatchTapeMatchesForward asserts the training forward pass
// (RecordBatch) is bit-identical to the per-tree Forward, layer by layer.
func TestForwardBatchTapeMatchesForward(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const dim = 5
		stack := NewStack([]int{dim, 9, 4}, rng)
		forests := make([][]*Tree, 6)
		for i := range forests {
			forests[i] = randomForest(rng, rng.Intn(3)+1, dim)
		}

		var bb BatchBuilder[float64]
		var arena nn.Arena[float64]
		batch := buildFlatBatch(&bb, forests, dim)
		var tape StackBatchTape
		stack.RecordBatch(&tape, batch, &arena)
		out := tape.Output()

		node := 0
		for _, f := range forests {
			for _, tree := range f {
				ref := stack.Forward(tree)
				ref.Output().Walk(func(n *Tree) {
					for c, v := range n.Data {
						if got := out.Row(node)[c]; got != v {
							t.Errorf("seed %d node %d channel %d: batch %v, per-tree %v", seed, node, c, got, v)
						}
					}
					node++
				})
			}
		}
		if node != out.N {
			t.Fatalf("seed %d: compared %d nodes, batch has %d", seed, node, out.N)
		}
	}
}

// TestStackBackwardBatchMatchesBackward is the training parity test for the
// convolution stack: a flat backward pass over a batch must accumulate
// bit-identical filter gradients and input gradients to per-tree Backward
// calls in flattened order.
func TestStackBackwardBatchMatchesBackward(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 10))
		const dim = 4
		batched := NewStack([]int{dim, 7, 3}, rand.New(rand.NewSource(seed+30)))
		reference := NewStack([]int{dim, 7, 3}, rand.New(rand.NewSource(seed+30)))

		forests := make([][]*Tree, 5)
		for i := range forests {
			forests[i] = randomForest(rng, rng.Intn(2)+1, dim)
		}
		var bb BatchBuilder[float64]
		var arena nn.Arena[float64]
		batch := buildFlatBatch(&bb, forests, dim)
		var tape StackBatchTape
		batched.RecordBatch(&tape, batch, &arena)
		outChannels := tape.Output().Channels

		// Random gradients per output node (with zeros mixed in, as dynamic
		// pooling produces).
		gradOut := make([]float64, batch.N*outChannels)
		for i := range gradOut {
			if rng.Intn(3) > 0 {
				gradOut[i] = rng.NormFloat64()
			}
		}
		gotGradIn := batched.BackwardBatch(&tape, gradOut, &arena)

		node := 0
		for _, f := range forests {
			for _, tree := range f {
				refTape := reference.Forward(tree)
				start := node
				var count int
				tree.Walk(func(*Tree) { count++ })
				// Rebuild this tree's gradient tree from the flat slice: walk
				// assigns node indices in the same pre-order as the builder.
				i := start
				gradTree := refTape.Output().Map(func(*Tree) []float64 {
					g := make([]float64, outChannels)
					copy(g, gradOut[i*outChannels:(i+1)*outChannels])
					i++
					return g
				})
				gradIn := reference.Backward(refTape, gradTree)
				j := start
				gradIn.Walk(func(n *Tree) {
					for c, v := range n.Data {
						if got := gotGradIn[j*dim+c]; got != v {
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

// TestPoolBatchArgmaxMatchesDynamicPool checks PoolForwardBatch's pooled
// values and argmax ownership against per-tree DynamicPool plus the
// cross-tree strict-greater ownership rule of the per-sample forward pass.
func TestPoolBatchArgmaxMatchesDynamicPool(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 6
	stack := NewStack([]int{dim, dim}, rng)
	forests := [][]*Tree{
		randomForest(rng, 2, dim),
		{},
		randomForest(rng, 3, dim),
		randomForest(rng, 1, dim),
	}
	var bb BatchBuilder[float64]
	var arena nn.Arena[float64]
	batch := buildFlatBatch(&bb, forests, dim)
	var tape StackBatchTape
	stack.RecordBatch(&tape, batch, &arena)
	out := tape.Output()
	pooled, argmax := PoolForwardBatch(out, &arena, nil)

	for s, f := range forests {
		want := make([]float64, out.Channels)
		for i := range want {
			want[i] = math.Inf(-1)
		}
		for _, tree := range f {
			p, _ := DynamicPool(stack.Forward(tree).Output())
			for c, v := range p {
				if v > want[c] {
					want[c] = v
				}
			}
		}
		for c := range want {
			if math.IsInf(want[c], -1) {
				want[c] = 0
				if argmax[s*out.Channels+c] != -1 {
					t.Errorf("sample %d channel %d: empty forest should have argmax -1", s, c)
				}
			}
			if got := pooled[s*out.Channels+c]; got != want[c] {
				t.Errorf("sample %d channel %d: pooled %v, want %v", s, c, got, want[c])
			}
			if n := argmax[s*out.Channels+c]; n >= 0 {
				if batch.Sample[n] != s {
					t.Errorf("sample %d channel %d: argmax node %d belongs to sample %d", s, c, n, batch.Sample[n])
				}
				if out.Row(n)[c] != pooled[s*out.Channels+c] {
					t.Errorf("sample %d channel %d: argmax node value %v != pooled %v", s, c, out.Row(n)[c], pooled[s*out.Channels+c])
				}
			}
		}
	}

	// PoolBackwardBatch scatters each (sample, channel) gradient onto exactly
	// the argmax node.
	grad := make([]float64, len(pooled))
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	gradNodes := PoolBackwardBatch(out, argmax, grad, &arena)
	sum := 0.0
	for _, v := range gradNodes {
		sum += math.Abs(v)
	}
	wantSum := 0.0
	for i, v := range grad {
		if argmax[i] >= 0 {
			wantSum += math.Abs(v)
		}
	}
	if math.Abs(sum-wantSum) > 1e-12 {
		t.Errorf("scattered gradient mass %v, want %v", sum, wantSum)
	}
}

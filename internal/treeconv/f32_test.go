package treeconv

import (
	"math"
	"math/rand"
	"testing"
)

func relErr32(a float32, b float64) float64 {
	d := math.Abs(float64(a) - b)
	m := math.Abs(b)
	if m < 1 {
		m = 1
	}
	return d / m
}

// buildBoth flattens the same forests through the float64 and float32
// builders.
func buildBoth(forests [][]*Tree, dim int) (*Batch[float64], *Batch[float32]) {
	var bb BatchBuilder[float64]
	var bb32 BatchBuilder[float32]
	b := bb.Build(forests, dim, func(_ int, n *Tree, row []float64) { copy(row, n.Data) })
	b32 := bb32.Build(forests, dim, func(_ int, n *Tree, row []float32) {
		for i, v := range n.Data {
			row[i] = float32(v)
		}
	})
	return b, b32
}

// TestStackF32MatchesFloat64 checks the packed float32 stack and pooling
// against the float64 batch path within 1e-5 relative, over forests that
// include one-child nodes, single-node trees and empty forests.
func TestStackF32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const dim = 6
	stack := NewStack([]int{dim, 10, 7, 4}, rng)
	stack32 := NewStackF32(stack)

	forests := [][]*Tree{
		randomForest(rng, 1, dim),
		randomForest(rng, 3, dim),
		{}, // empty forest
		{NewLeaf(make([]float64, dim))},
		{NewNode(randomTree(rng, 1, dim).Data, randomTree(rng, 4, dim), nil)}, // one-child root
		randomForest(rng, 2, dim),
	}

	b, b32 := buildBoth(forests, dim)
	var scratch BatchScratch[float64]
	var scratch32 BatchScratch[float32]
	out := stack.ForwardBatch(b, &scratch)
	out32 := stack32.ForwardBatch(b32, &scratch32)
	if out32.N != out.N || out32.Channels != out.Channels {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", out32.N, out32.Channels, out.N, out.Channels)
	}
	for i, w := range out.Data[:out.N*out.Channels] {
		if e := relErr32(out32.Data[i], w); e > 1e-5 {
			t.Fatalf("conv out[%d] = %v want %v (rel err %g)", i, out32.Data[i], w, e)
		}
	}

	pooled := PoolBatch(out, &scratch.Arena)
	pooled32 := PoolBatch(out32, &scratch32.Arena)
	for i, w := range pooled {
		if e := relErr32(pooled32[i], w); e > 1e-5 {
			t.Fatalf("pooled[%d] = %v want %v (rel err %g)", i, pooled32[i], w, e)
		}
	}
}

// TestStackF32EmptyBatch checks the zero-node batch (all forests empty).
func TestStackF32EmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const dim = 5
	stack32 := NewStackF32(NewStack([]int{dim, 8, 3}, rng))
	var bb32 BatchBuilder[float32]
	b32 := bb32.Build([][]*Tree{{}, {}}, dim, func(int, *Tree, []float32) {})
	var scratch32 BatchScratch[float32]
	out := stack32.ForwardBatch(b32, &scratch32)
	if out.N != 0 {
		t.Fatalf("empty batch produced %d nodes", out.N)
	}
	pooled := PoolBatch(out, &scratch32.Arena)
	for i, v := range pooled {
		if v != 0 {
			t.Fatalf("pooled[%d] = %v, want 0 for empty samples", i, v)
		}
	}
}

package treeconv

import (
	"math/rand"
	"testing"
)

// randomTree builds a random binary tree with n nodes of dim-width vectors.
func randomTree(rng *rand.Rand, n, dim int) *Tree {
	if n <= 0 {
		return nil
	}
	data := make([]float64, dim)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	if n == 1 {
		return NewLeaf(data)
	}
	nl := rng.Intn(n)
	return NewNode(data, randomTree(rng, nl, dim), randomTree(rng, n-1-nl, dim))
}

func randomForest(rng *rand.Rand, trees, dim int) []*Tree {
	out := make([]*Tree, 0, trees)
	for i := 0; i < trees; i++ {
		out = append(out, randomTree(rng, 1+rng.Intn(9), dim))
	}
	return out
}

func TestBatchBuilderStructure(t *testing.T) {
	//      a
	//     / \
	//    b   c
	//   /
	//  d
	d := NewLeaf([]float64{4})
	b := NewNode([]float64{2}, d, nil)
	c := NewLeaf([]float64{3})
	a := NewNode([]float64{1}, b, c)

	var bb BatchBuilder[float64]
	batch := bb.Build([][]*Tree{{a}}, 1, func(_ int, n *Tree, row []float64) { copy(row, n.Data) })
	if batch.N != 4 || batch.Samples != 1 {
		t.Fatalf("N=%d Samples=%d, want 4 and 1", batch.N, batch.Samples)
	}
	// Pre-order: a(0), b(1), d(2), c(3).
	wantData := []float64{1, 2, 4, 3}
	for i, w := range wantData {
		if batch.Data[i] != w {
			t.Errorf("node %d data %v, want %v", i, batch.Data[i], w)
		}
	}
	wantLeft := []int{1, 2, -1, -1}
	wantRight := []int{3, -1, -1, -1}
	for i := range wantLeft {
		if batch.Left[i] != wantLeft[i] || batch.Right[i] != wantRight[i] {
			t.Errorf("node %d children (%d,%d), want (%d,%d)", i, batch.Left[i], batch.Right[i], wantLeft[i], wantRight[i])
		}
	}
}

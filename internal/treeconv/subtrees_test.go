package treeconv

import (
	"math/rand"
	"slices"
	"testing"
)

// randomTree builds a random binary tree with n ≥ 1 leaves (2n−1 nodes) of
// dim-width vectors.
func randomTree(rng *rand.Rand, n, dim int) *Tree {
	data := make([]float64, dim)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	if n == 1 {
		return NewLeaf(data)
	}
	nl := 1 + rng.Intn(n-1)
	return NewNode(data, randomTree(rng, nl, dim), randomTree(rng, n-nl, dim))
}

func randomForest(rng *rand.Rand, trees, dim int) []*Tree {
	out := make([]*Tree, 0, trees)
	for i := 0; i < trees; i++ {
		out = append(out, randomTree(rng, 1+rng.Intn(5), dim))
	}
	return out
}

// TestSubtreesStructure pins the table's layout: entries children before
// parents with their children's entries, the first-visit pre-order, one entry
// per shared subtree, and one per query group.
func TestSubtreesStructure(t *testing.T) {
	//        a         e
	//       / \       / \
	//      b   c     b   c
	//     / \       / \
	//    d   f     d   f
	d := NewLeaf([]float64{4})
	f := NewLeaf([]float64{6})
	b := NewNode([]float64{2}, d, f)
	c := NewLeaf([]float64{3})
	a := NewNode([]float64{1}, b, c)
	e := NewNode([]float64{5}, b, c)

	var tab Subtrees
	if got := tab.Add(a, 0); got != 4 {
		t.Fatalf("a's entry %d, want 4", got)
	}
	// Children first: d(0), f(1), b(2), c(3), a(4); then only e is new.
	if got := tab.Add(e, 0); got != 5 {
		t.Fatalf("e's entry %d, want 5", got)
	}
	if got := tab.Add(b, 0); got != 2 {
		t.Fatalf("b re-added as entry %d, want its entry 2", got)
	}
	wantTree := []*Tree{d, f, b, c, a, e}
	wantLeft := []int32{-1, -1, 0, -1, 2, 2}
	wantRight := []int32{-1, -1, 1, -1, 3, 3}
	if tab.Len() != len(wantTree) {
		t.Fatalf("%d entries, want %d", tab.Len(), len(wantTree))
	}
	for i := range wantTree {
		if tab.Tree[i] != wantTree[i] || tab.Group[i] != 0 || tab.Left[i] != wantLeft[i] || tab.Right[i] != wantRight[i] {
			t.Errorf("entry %d: tree %p group %d children (%d,%d), want %p 0 (%d,%d)",
				i, tab.Tree[i], tab.Group[i], tab.Left[i], tab.Right[i], wantTree[i], wantLeft[i], wantRight[i])
		}
	}
	// Pre-order as first met: a, b, d, f, c, then e.
	if want := []int32{4, 2, 0, 1, 3, 5}; !slices.Equal(tab.Pre, want) {
		t.Errorf("pre-order %v, want %v", tab.Pre, want)
	}
	// The same tree under another query group is new throughout.
	if got := tab.Add(a, 1); got != 10 || tab.Len() != 11 || tab.Group[10] != 1 || tab.Tree[10] != a {
		t.Fatalf("a under group 1: entry %d of %d, want 10 of 11", got, tab.Len())
	}
	tab.Reset()
	if tab.Len() != 0 || len(tab.Pre) != 0 || tab.Add(c, 0) != 0 {
		t.Fatal("Reset left entries behind")
	}
}

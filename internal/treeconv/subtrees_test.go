package treeconv

import (
	"math/rand"
	"slices"
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

// TestSubtreesStructure pins the table's layout: entries children before
// parents with their children's entries, the first-visit pre-order, one entry
// per shared subtree, and one per query group.
func TestSubtreesStructure(t *testing.T) {
	//      a       e
	//     / \     / \
	//    b   c   b   c
	//   /       /
	//  d       d
	d := NewLeaf([]float64{4})
	b := NewNode([]float64{2}, d, nil)
	c := NewLeaf([]float64{3})
	a := NewNode([]float64{1}, b, c)
	e := NewNode([]float64{5}, b, c)

	var tab Subtrees
	if got := tab.Add(a, 0); got != 3 {
		t.Fatalf("a's entry %d, want 3", got)
	}
	// Children first: d(0), b(1), c(2), a(3); then only e is new.
	if got := tab.Add(e, 0); got != 4 {
		t.Fatalf("e's entry %d, want 4", got)
	}
	if got := tab.Add(b, 0); got != 1 {
		t.Fatalf("b re-added as entry %d, want its entry 1", got)
	}
	wantTree := []*Tree{d, b, c, a, e}
	wantLeft := []int32{-1, 0, -1, 1, 1}
	wantRight := []int32{-1, -1, -1, 2, 2}
	if tab.Len() != len(wantTree) {
		t.Fatalf("%d entries, want %d", tab.Len(), len(wantTree))
	}
	for i := range wantTree {
		if tab.Tree[i] != wantTree[i] || tab.Group[i] != 0 || tab.Left[i] != wantLeft[i] || tab.Right[i] != wantRight[i] {
			t.Errorf("entry %d: tree %p group %d children (%d,%d), want %p 0 (%d,%d)",
				i, tab.Tree[i], tab.Group[i], tab.Left[i], tab.Right[i], wantTree[i], wantLeft[i], wantRight[i])
		}
	}
	// Pre-order as first met: a, b, d, c, then e.
	if want := []int32{3, 1, 0, 2, 4}; !slices.Equal(tab.Pre, want) {
		t.Errorf("pre-order %v, want %v", tab.Pre, want)
	}
	// The same tree under another query group is new throughout.
	if got := tab.Add(a, 1); got != 8 || tab.Len() != 9 || tab.Group[8] != 1 || tab.Tree[8] != a {
		t.Fatalf("a under group 1: entry %d of %d, want 8 of 9", got, tab.Len())
	}
	tab.Reset()
	if tab.Len() != 0 || len(tab.Pre) != 0 || tab.Add(c, 0) != 0 {
		t.Fatal("Reset left entries behind")
	}
}

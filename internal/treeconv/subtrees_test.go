package treeconv

import (
	"math/rand"
	"slices"
	"testing"

	"neo/internal/reftest"
)

func randomForest(rng *rand.Rand, trees, dim int) []*reftest.Tree {
	out := make([]*reftest.Tree, 0, trees)
	for i := 0; i < trees; i++ {
		out = append(out, reftest.RandomTree(rng, 1+rng.Intn(5), dim))
	}
	return out
}

// TestSubtreesStructure pins the table's layout: entries children before
// parents with their children's entries, the first-visit pre-order, one entry
// per shared subtree, one per query group, and one per id space.
func TestSubtreesStructure(t *testing.T) {
	//        a         e
	//       / \       / \
	//      b   c     b   c
	//     / \       / \
	//    d   f     d   f
	d := reftest.Leaf([]float64{4})
	f := reftest.Leaf([]float64{6})
	b := reftest.Join([]float64{2}, d, f)
	c := reftest.Leaf([]float64{3})
	a := reftest.Join([]float64{1}, b, c)
	e := reftest.Join([]float64{5}, b, c)

	var ids reftest.IDs
	var tab Subtrees
	add := func(tr *reftest.Tree, group int32) int32 { return tab.Add(&ids, ids.ID(tr), group) }
	if got := add(a, 0); got != 4 {
		t.Fatalf("a's entry %d, want 4", got)
	}
	// Children first: d(0), f(1), b(2), c(3), a(4); then only e is new.
	if got := add(e, 0); got != 5 {
		t.Fatalf("e's entry %d, want 5", got)
	}
	if got := add(b, 0); got != 2 {
		t.Fatalf("b re-added as entry %d, want its entry 2", got)
	}
	wantTree := []*reftest.Tree{d, f, b, c, a, e}
	wantLeft := []int32{-1, -1, 0, -1, 2, 2}
	wantRight := []int32{-1, -1, 1, -1, 3, 3}
	if tab.Len() != len(wantTree) {
		t.Fatalf("%d entries, want %d", tab.Len(), len(wantTree))
	}
	for i, w := range wantTree {
		if &tab.Row[i][0] != &w.Data[0] || tab.Group[i] != 0 || tab.Left[i] != wantLeft[i] || tab.Right[i] != wantRight[i] {
			t.Errorf("entry %d: row %v group %d children (%d,%d), want %v 0 (%d,%d)",
				i, tab.Row[i], tab.Group[i], tab.Left[i], tab.Right[i], w.Data, wantLeft[i], wantRight[i])
		}
	}
	// Pre-order as first met: a, b, d, f, c, then e.
	if want := []int32{4, 2, 0, 1, 3, 5}; !slices.Equal(tab.Pre, want) {
		t.Errorf("pre-order %v, want %v", tab.Pre, want)
	}
	// The same tree under another query group is new throughout.
	if got := add(a, 1); got != 10 || tab.Len() != 11 || tab.Group[10] != 1 || &tab.Row[10][0] != &a.Data[0] {
		t.Fatalf("a under group 1: entry %d of %d, want 10 of 11", got, tab.Len())
	}
	// So is the same tree numbered in another id space.
	var other reftest.IDs
	if got := tab.Add(&other, other.ID(a), 0); got != 15 || tab.Len() != 16 || tab.Group[15] != 0 {
		t.Fatalf("a in another id space: entry %d of %d, want 15 of 16", got, tab.Len())
	}
	tab.Reset()
	if tab.Len() != 0 || len(tab.Pre) != 0 || add(c, 0) != 0 {
		t.Fatal("Reset left entries behind")
	}
}

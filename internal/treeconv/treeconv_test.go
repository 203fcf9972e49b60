package treeconv

import (
	"math"
	"math/rand"
	"testing"

	"neo/internal/nn"
	"neo/internal/reftest"
)

func smallTree() *reftest.Tree {
	// A three-node tree matching the paper's Figure 6 "merge join over merge
	// join" example shape.
	return reftest.Join([]float64{1, 0, 1, 1, 0},
		reftest.Leaf([]float64{0, 0, 1, 0, 0}),
		reftest.Leaf([]float64{0, 0, 0, 1, 0}))
}

// TestPaperFigure6Detector reproduces Example 1 of Figure 6: a filter with
// weights {1,-1,0,0,0} in e_p, e_l, e_r outputs 2 at the root of a plan with
// two merge joins in a row, and 0 at the root of a plan with a hash join on
// top of a merge join.
func TestPaperFigure6Detector(t *testing.T) {
	layer := &Layer{
		InChannels:  5,
		OutChannels: 1,
		EP:          &nn.Param{Value: []float64{1, -1, 0, 0, 0}, Grad: make([]float64, 5)},
		EL:          &nn.Param{Value: []float64{1, -1, 0, 0, 0}, Grad: make([]float64, 5)},
		ER:          &nn.Param{Value: []float64{1, -1, 0, 0, 0}, Grad: make([]float64, 5)},
		Bias:        &nn.Param{Value: []float64{0}, Grad: make([]float64, 1)},
		Act:         nn.NewLeakyReLU(),
	}
	// Plan 1: merge join (1,0,...) on top of merge join (1,0,...) and C.
	mergeOverMerge := reftest.Join([]float64{1, 0, 1, 1, 1},
		reftest.Join([]float64{1, 0, 1, 1, 0},
			reftest.Leaf([]float64{0, 0, 1, 0, 0}),
			reftest.Leaf([]float64{0, 0, 0, 1, 0})),
		reftest.Leaf([]float64{0, 0, 0, 0, 1}))
	// Plan 2: hash join (0,1,...) on top of the same merge join.
	hashOverMerge := reftest.Join([]float64{0, 1, 1, 1, 1},
		reftest.Join([]float64{1, 0, 1, 1, 0},
			reftest.Leaf([]float64{0, 0, 1, 0, 0}),
			reftest.Leaf([]float64{0, 0, 0, 1, 0})),
		reftest.Leaf([]float64{0, 0, 0, 0, 1}))

	out1 := refLayer(layer).Forward(mergeOverMerge).Out
	out2 := refLayer(layer).Forward(hashOverMerge).Out
	if math.Abs(out1.Data[0]-2) > 1e-9 {
		t.Errorf("merge-over-merge root output = %f, want 2", out1.Data[0])
	}
	// The paper's figure shows 0; with a leaky ReLU the negative pre-activation
	// (-2) becomes a small negative number, so assert it is far below 2.
	if out2.Data[0] > 0.01 {
		t.Errorf("hash-over-merge root output = %f, want <= 0", out2.Data[0])
	}
}

func TestLayerPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewLayer(5, 7, rng)
	out := refLayer(layer).Forward(smallTree()).Out
	if out.NumNodes() != 3 {
		t.Errorf("output tree has %d nodes, want 3", out.NumNodes())
	}
	out.Walk(func(n *reftest.Tree) {
		if len(n.Data) != 7 {
			t.Errorf("output node has %d channels, want 7", len(n.Data))
		}
	})
	// Empty tree handling.
	if refLayer(layer).Forward(nil).Out != nil {
		t.Errorf("forward of nil tree should be nil")
	}
}

func TestStackForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stack := NewStack([]int{5, 8, 4}, rng)
	if len(stack.Layers) != 2 {
		t.Fatalf("expected 2 layers")
	}
	ref := refStack(stack)
	tape := ref.Forward(smallTree())
	out := tape.Output()
	if out.NumNodes() != 3 {
		t.Errorf("stack output should preserve structure")
	}
	if len(out.Data) != 4 {
		t.Errorf("stack output channels = %d, want 4", len(out.Data))
	}
	gradTree := out.Map(func(n *reftest.Tree) []float64 {
		g := make([]float64, len(n.Data))
		for i := range g {
			g[i] = 1
		}
		return g
	})
	gradIn := ref.Backward(tape, gradTree)
	if gradIn == nil || len(gradIn.Data) != 5 {
		t.Errorf("stack input gradient has wrong shape")
	}
	if len(stack.Params()) != 8 {
		t.Errorf("stack should expose 8 parameter tensors, got %d", len(stack.Params()))
	}
}

func TestNewStackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	NewStack([]int{3}, rand.New(rand.NewSource(1)))
}

func TestDynamicPool(t *testing.T) {
	tr := reftest.Join([]float64{1, -5},
		reftest.Leaf([]float64{0, 7}),
		reftest.Leaf([]float64{-3, 2}))
	pooled, argmax := reftest.Pool(tr)
	if pooled[0] != 1 || pooled[1] != 7 {
		t.Errorf("pooled = %v, want [1 7]", pooled)
	}
	if argmax[0] != tr || argmax[1] != tr.Left {
		t.Errorf("argmax nodes wrong")
	}
	// Backward routes gradient only to the argmax nodes.
	gradTree := reftest.PoolBackward(tr, argmax, []float64{0.5, 2.0})
	if gradTree.Data[0] != 0.5 || gradTree.Data[1] != 0 {
		t.Errorf("root gradient = %v", gradTree.Data)
	}
	if gradTree.Left.Data[1] != 2.0 || gradTree.Left.Data[0] != 0 {
		t.Errorf("left gradient = %v", gradTree.Left.Data)
	}
	if gradTree.Right.Data[0] != 0 || gradTree.Right.Data[1] != 0 {
		t.Errorf("right gradient = %v", gradTree.Right.Data)
	}
	// Nil handling.
	if p, a := reftest.Pool(nil); p != nil || a != nil {
		t.Errorf("Pool(nil) should be nil")
	}
	if reftest.PoolBackward(nil, nil, nil) != nil {
		t.Errorf("PoolBackward(nil) should be nil")
	}
}

func TestPoolingInvariantToStructureSize(t *testing.T) {
	// Pooling output dimension equals channel count regardless of tree size.
	rng := rand.New(rand.NewSource(4))
	layer := NewLayer(5, 6, rng)
	small := refLayer(layer).Forward(smallTree()).Out
	big := refLayer(layer).Forward(reftest.Join([]float64{1, 1, 0, 0, 1}, smallTree(), smallTree())).Out
	p1, _ := reftest.Pool(small)
	p2, _ := reftest.Pool(big)
	if len(p1) != 6 || len(p2) != 6 {
		t.Errorf("pooled sizes = %d, %d; want 6, 6", len(p1), len(p2))
	}
}

package treeconv

import (
	"math"
	"math/rand"
	"testing"

	"neo/internal/nn"
)

func smallTree() *Tree {
	// A three-node tree matching the paper's Figure 6 "merge join over merge
	// join" example shape.
	return NewNode([]float64{1, 0, 1, 1, 0},
		NewLeaf([]float64{0, 0, 1, 0, 0}),
		NewLeaf([]float64{0, 0, 0, 1, 0}))
}

func TestTreeBasics(t *testing.T) {
	tr := smallTree()
	if tr.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", tr.NumNodes())
	}
	var visited int
	tr.Walk(func(*Tree) { visited++ })
	if visited != 3 {
		t.Errorf("Walk visited %d, want 3", visited)
	}
	doubled := tr.Map(func(n *Tree) []float64 {
		out := make([]float64, len(n.Data))
		for i, v := range n.Data {
			out[i] = 2 * v
		}
		return out
	})
	if doubled.Data[0] != 2 || doubled.Left.Data[2] != 2 {
		t.Errorf("Map did not double values")
	}
	var nilTree *Tree
	if nilTree.NumNodes() != 0 {
		t.Errorf("nil tree NumNodes should be 0")
	}
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
	mergeOverMerge := NewNode([]float64{1, 0, 1, 1, 1},
		NewNode([]float64{1, 0, 1, 1, 0},
			NewLeaf([]float64{0, 0, 1, 0, 0}),
			NewLeaf([]float64{0, 0, 0, 1, 0})),
		NewLeaf([]float64{0, 0, 0, 0, 1}))
	// Plan 2: hash join (0,1,...) on top of the same merge join.
	hashOverMerge := NewNode([]float64{0, 1, 1, 1, 1},
		NewNode([]float64{1, 0, 1, 1, 0},
			NewLeaf([]float64{0, 0, 1, 0, 0}),
			NewLeaf([]float64{0, 0, 0, 1, 0})),
		NewLeaf([]float64{0, 0, 0, 0, 1}))

	out1 := layer.Forward(mergeOverMerge).Output()
	out2 := layer.Forward(hashOverMerge).Output()
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
	out := layer.Forward(smallTree()).Output()
	if out.NumNodes() != 3 {
		t.Errorf("output tree has %d nodes, want 3", out.NumNodes())
	}
	out.Walk(func(n *Tree) {
		if len(n.Data) != 7 {
			t.Errorf("output node has %d channels, want 7", len(n.Data))
		}
	})
	// Empty tree handling.
	empty := layer.Forward(nil)
	if empty.Output() != nil {
		t.Errorf("forward of nil tree should be nil")
	}
}

func TestLayerGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	layer := NewLayer(3, 4, rng)
	input := NewNode([]float64{0.5, -0.2, 0.8},
		NewLeaf([]float64{0.1, 0.9, -0.4}),
		NewLeaf([]float64{-0.7, 0.3, 0.2}))

	// Scalar loss: sum of all output channels over all nodes.
	loss := func() float64 {
		out := layer.Forward(input).Output()
		s := 0.0
		out.Walk(func(n *Tree) {
			for _, v := range n.Data {
				s += v
			}
		})
		return s
	}
	tape := layer.Forward(input)
	gradTree := tape.Output().Map(func(n *Tree) []float64 {
		g := make([]float64, len(n.Data))
		for i := range g {
			g[i] = 1
		}
		return g
	})
	gradIn := layer.Backward(tape, gradTree)

	const eps, tol = 1e-5, 1e-3
	for _, p := range layer.Params() {
		for i := range p.Value {
			orig := p.Value[i]
			p.Value[i] = orig + eps
			up := loss()
			p.Value[i] = orig - eps
			down := loss()
			p.Value[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-p.Grad[i]) > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: numeric %f vs analytic %f", p.Name, i, numeric, p.Grad[i])
			}
		}
	}
	// Input gradient check on the root vector.
	for i := range input.Data {
		orig := input.Data[i]
		input.Data[i] = orig + eps
		up := loss()
		input.Data[i] = orig - eps
		down := loss()
		input.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-gradIn.Data[i]) > tol {
			t.Errorf("input grad[%d]: numeric %f vs analytic %f", i, numeric, gradIn.Data[i])
		}
	}
}

func TestStackForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stack := NewStack([]int{5, 8, 4}, rng)
	if len(stack.Layers) != 2 {
		t.Fatalf("expected 2 layers")
	}
	tape := stack.Forward(smallTree())
	out := tape.Output()
	if out.NumNodes() != 3 {
		t.Errorf("stack output should preserve structure")
	}
	if len(out.Data) != 4 {
		t.Errorf("stack output channels = %d, want 4", len(out.Data))
	}
	gradTree := out.Map(func(n *Tree) []float64 {
		g := make([]float64, len(n.Data))
		for i := range g {
			g[i] = 1
		}
		return g
	})
	gradIn := stack.Backward(tape, gradTree)
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
	tr := NewNode([]float64{1, -5},
		NewLeaf([]float64{0, 7}),
		NewLeaf([]float64{-3, 2}))
	pooled, argmax := DynamicPool(tr)
	if pooled[0] != 1 || pooled[1] != 7 {
		t.Errorf("pooled = %v, want [1 7]", pooled)
	}
	if argmax[0] != tr || argmax[1] != tr.Left {
		t.Errorf("argmax nodes wrong")
	}
	// Backward routes gradient only to the argmax nodes.
	gradTree := PoolBackward(tr, argmax, []float64{0.5, 2.0})
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
	if p, a := DynamicPool(nil); p != nil || a != nil {
		t.Errorf("DynamicPool(nil) should be nil")
	}
	if PoolBackward(nil, nil, nil) != nil {
		t.Errorf("PoolBackward(nil) should be nil")
	}
}

func TestPoolingInvariantToStructureSize(t *testing.T) {
	// Pooling output dimension equals channel count regardless of tree size.
	rng := rand.New(rand.NewSource(4))
	layer := NewLayer(5, 6, rng)
	small := layer.Forward(smallTree()).Output()
	big := layer.Forward(NewNode([]float64{1, 1, 0, 0, 1}, smallTree(), smallTree())).Output()
	p1, _ := DynamicPool(small)
	p2, _ := DynamicPool(big)
	if len(p1) != 6 || len(p2) != 6 {
		t.Errorf("pooled sizes = %d, %d; want 6, 6", len(p1), len(p2))
	}
}

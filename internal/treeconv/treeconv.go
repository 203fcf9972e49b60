// Package treeconv implements tree convolution and dynamic pooling (Mou et
// al., "Convolutional Neural Networks over Tree Structures"), the operations
// Neo's value network uses to process tree-structured execution plans
// (Section 4.1 and Appendix A of the paper).
//
// A tree convolution filter consists of three weight vectors (e_p, e_l, e_r)
// applied to every parent/left-child/right-child triangle of the tree; a
// filterbank of c_out such filters maps a tree whose nodes carry c_in-channel
// vectors to a structurally identical tree whose nodes carry c_out channels.
// Dynamic pooling takes the elementwise maximum over all node vectors,
// flattening a variable-shaped tree into a fixed-size vector.
package treeconv

import (
	"fmt"
	"math"
	"math/rand"

	"neo/internal/nn"
)

// Tree is a binary tree of feature vectors, as a plan is: a node has two
// children or none. Leaves have nil children, which the convolution treats as
// all-zero vectors, exactly as the paper attaches zero-filled children to leaf
// nodes. Build trees with NewLeaf and NewNode, which record the node count,
// and do not relink them afterwards: plan encoders share subtrees between
// forests.
type Tree struct {
	Data        []float64
	Left, Right *Tree
	nodes       int
}

// NewLeaf creates a leaf node carrying the given vector.
func NewLeaf(data []float64) *Tree { return &Tree{Data: data, nodes: 1} }

// NewNode creates a node carrying the given vector over both children, or a
// leaf when both are nil. It panics when exactly one is nil.
func NewNode(data []float64, left, right *Tree) *Tree {
	if (left == nil) != (right == nil) {
		panic("treeconv: NewNode needs both children or neither")
	}
	return &Tree{Data: data, Left: left, Right: right, nodes: 1 + left.NumNodes() + right.NumNodes()}
}

// NumNodes returns the number of nodes in the tree, counted at construction.
func (t *Tree) NumNodes() int {
	if t == nil {
		return 0
	}
	return t.nodes
}

// Walk visits every node in pre-order.
func (t *Tree) Walk(fn func(*Tree)) {
	if t == nil {
		return
	}
	fn(t)
	t.Left.Walk(fn)
	t.Right.Walk(fn)
}

// Map returns a structurally identical tree whose node vectors are fn(node).
func (t *Tree) Map(fn func(*Tree) []float64) *Tree {
	if t == nil {
		return nil
	}
	return NewNode(fn(t), t.Left.Map(fn), t.Right.Map(fn))
}

// Layer is a tree-convolution layer: a filterbank of OutChannels filters over
// InChannels input channels, followed by a leaky-ReLU activation.
type Layer struct {
	InChannels, OutChannels int
	// EP, EL, ER are the parent / left-child / right-child weight matrices,
	// each OutChannels×InChannels (row-major), plus a bias per filter.
	EP, EL, ER *nn.Param
	Bias       *nn.Param
	Act        *nn.LeakyReLU

	// Packed, when set, is [EP; EL; ER] and Bias transposed for the vector
	// forward kernel, which Stack.RecordBatch then runs when
	// nn.VectorKernels. Whoever sets it must Pack it after every change to
	// the weights.
	Packed *nn.PackedF64
}

// Pack refills l.Packed from the layer's weights.
func (l *Layer) Pack() {
	l.Packed.Pack(l.InChannels, l.OutChannels, l.Bias.Value, l.EP.Value, l.EL.Value, l.ER.Value)
}

// NewLayer creates a tree convolution layer with random initialisation.
func NewLayer(in, out int, rng *rand.Rand) *Layer {
	mk := func(name string) *nn.Param {
		p := &nn.Param{Name: name, Value: make([]float64, in*out), Grad: make([]float64, in*out)}
		bound := math.Sqrt(2.0 / float64(3*in))
		for i := range p.Value {
			p.Value[i] = (rng.Float64()*2 - 1) * bound
		}
		return p
	}
	return &Layer{
		InChannels:  in,
		OutChannels: out,
		EP:          mk(fmt.Sprintf("treeconv_%dx%d_ep", out, in)),
		EL:          mk(fmt.Sprintf("treeconv_%dx%d_el", out, in)),
		ER:          mk(fmt.Sprintf("treeconv_%dx%d_er", out, in)),
		Bias:        &nn.Param{Name: fmt.Sprintf("treeconv_%dx%d_b", out, in), Value: make([]float64, out), Grad: make([]float64, out)},
		Act:         nn.NewLeakyReLU(),
	}
}

// Params returns the layer's trainable parameters.
func (l *Layer) Params() []*nn.Param { return []*nn.Param{l.EP, l.EL, l.ER, l.Bias} }

// Tape records one forward pass through a layer for backpropagation.
type Tape struct {
	input  *Tree
	preAct *Tree // pre-activation outputs, same structure
	output *Tree
}

// Output returns the convolved tree.
func (t *Tape) Output() *Tree { return t.output }

// Forward convolves the filterbank over the tree and applies the activation.
func (l *Layer) Forward(t *Tree) *Tape {
	if t == nil {
		return &Tape{}
	}
	pre := l.convolve(t)
	out := pre.Map(func(n *Tree) []float64 { return l.Act.Forward(n.Data) })
	return &Tape{input: t, preAct: pre, output: out}
}

func (l *Layer) convolve(t *Tree) *Tree {
	if t == nil {
		return nil
	}
	out := make([]float64, l.OutChannels)
	leftData := zerosIfNil(t.Left, l.InChannels)
	rightData := zerosIfNil(t.Right, l.InChannels)
	for o := 0; o < l.OutChannels; o++ {
		sum := l.Bias.Value[o]
		ep := l.EP.Value[o*l.InChannels : (o+1)*l.InChannels]
		el := l.EL.Value[o*l.InChannels : (o+1)*l.InChannels]
		er := l.ER.Value[o*l.InChannels : (o+1)*l.InChannels]
		for i := 0; i < l.InChannels; i++ {
			sum += ep[i] * t.Data[i]
			sum += el[i] * leftData[i]
			sum += er[i] * rightData[i]
		}
		out[o] = sum
	}
	return NewNode(out, l.convolve(t.Left), l.convolve(t.Right))
}

// Backward propagates a gradient tree (same structure as the output) through
// the layer, accumulating filter gradients and returning the gradient tree
// with respect to the input.
func (l *Layer) Backward(tape *Tape, gradOut *Tree) *Tree {
	if tape.input == nil || gradOut == nil {
		return nil
	}
	// Gradient of the activation.
	gradPre := zipMap(tape.preAct, gradOut, func(pre, g []float64) []float64 {
		return l.Act.Backward(pre, g)
	})
	// Allocate a zero gradient tree matching the input.
	gradIn := tape.input.Map(func(n *Tree) []float64 { return make([]float64, l.InChannels) })
	l.backwardNode(tape.input, gradPre, gradIn)
	return gradIn
}

// backwardNode handles one parent/left/right triangle.
func (l *Layer) backwardNode(in, gradPre, gradIn *Tree) {
	if in == nil || gradPre == nil {
		return
	}
	leftData := zerosIfNil(in.Left, l.InChannels)
	rightData := zerosIfNil(in.Right, l.InChannels)
	for o := 0; o < l.OutChannels; o++ {
		g := gradPre.Data[o]
		if g == 0 {
			continue
		}
		l.Bias.Grad[o] += g
		ep := l.EP.Value[o*l.InChannels : (o+1)*l.InChannels]
		el := l.EL.Value[o*l.InChannels : (o+1)*l.InChannels]
		er := l.ER.Value[o*l.InChannels : (o+1)*l.InChannels]
		epg := l.EP.Grad[o*l.InChannels : (o+1)*l.InChannels]
		elg := l.EL.Grad[o*l.InChannels : (o+1)*l.InChannels]
		erg := l.ER.Grad[o*l.InChannels : (o+1)*l.InChannels]
		for i := 0; i < l.InChannels; i++ {
			epg[i] += g * in.Data[i]
			elg[i] += g * leftData[i]
			erg[i] += g * rightData[i]
			gradIn.Data[i] += g * ep[i]
			if in.Left != nil {
				gradIn.Left.Data[i] += g * el[i]
				gradIn.Right.Data[i] += g * er[i]
			}
		}
	}
	l.backwardNode(in.Left, gradPre.Left, gradIn.Left)
	l.backwardNode(in.Right, gradPre.Right, gradIn.Right)
}

// Stack is a sequence of tree-convolution layers applied back to back.
type Stack struct {
	Layers []*Layer
}

// NewStack builds a stack with the given channel sizes, e.g. channels =
// [in, 64, 64, 32] creates three layers.
func NewStack(channels []int, rng *rand.Rand) *Stack {
	if len(channels) < 2 {
		panic("treeconv: NewStack needs at least two channel counts")
	}
	s := &Stack{}
	for i := 0; i+1 < len(channels); i++ {
		s.Layers = append(s.Layers, NewLayer(channels[i], channels[i+1], rng))
	}
	return s
}

// Params returns every layer's trainable parameters, in order.
func (s *Stack) Params() []*nn.Param {
	var out []*nn.Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// StackTape records the per-layer tapes of one forward pass.
type StackTape struct {
	tapes  []*Tape
	output *Tree
}

// Output returns the final convolved tree.
func (t *StackTape) Output() *Tree { return t.output }

// Forward runs every layer in sequence.
func (s *Stack) Forward(t *Tree) *StackTape {
	tape := &StackTape{}
	cur := t
	for _, l := range s.Layers {
		lt := l.Forward(cur)
		tape.tapes = append(tape.tapes, lt)
		cur = lt.Output()
	}
	tape.output = cur
	return tape
}

// Backward propagates a gradient tree through the stack and returns the
// gradient with respect to the input tree.
func (s *Stack) Backward(tape *StackTape, gradOut *Tree) *Tree {
	grad := gradOut
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(tape.tapes[i], grad)
	}
	return grad
}

// DynamicPool flattens a tree into a fixed-size vector by taking the
// elementwise maximum over all node vectors. The returned argmax slice
// records, for every channel, which node supplied the maximum (used by
// PoolBackward).
func DynamicPool(t *Tree) (pooled []float64, argmax []*Tree) {
	if t == nil {
		return nil, nil
	}
	dim := len(t.Data)
	pooled = make([]float64, dim)
	argmax = make([]*Tree, dim)
	for i := range pooled {
		pooled[i] = math.Inf(-1)
	}
	t.Walk(func(n *Tree) {
		for i, v := range n.Data {
			if v > pooled[i] {
				pooled[i] = v
				argmax[i] = n
			}
		}
	})
	return pooled, argmax
}

// PoolBackward converts a gradient on the pooled vector into a gradient tree
// (zero everywhere except at the argmax node of each channel).
func PoolBackward(t *Tree, argmax []*Tree, grad []float64) *Tree {
	if t == nil {
		return nil
	}
	dim := len(t.Data)
	gradTree := t.Map(func(n *Tree) []float64 { return make([]float64, dim) })
	// Build a mapping from original nodes to gradient nodes by walking both
	// trees in the same order.
	var origs, grads []*Tree
	t.Walk(func(n *Tree) { origs = append(origs, n) })
	gradTree.Walk(func(n *Tree) { grads = append(grads, n) })
	index := make(map[*Tree]*Tree, len(origs))
	for i := range origs {
		index[origs[i]] = grads[i]
	}
	for i, src := range argmax {
		if src == nil {
			continue
		}
		index[src].Data[i] += grad[i]
	}
	return gradTree
}

func zerosIfNil(t *Tree, dim int) []float64 {
	if t == nil {
		return make([]float64, dim)
	}
	return t.Data
}

func zipMap(a, b *Tree, fn func(av, bv []float64) []float64) *Tree {
	if a == nil || b == nil {
		return nil
	}
	return NewNode(fn(a.Data, b.Data), zipMap(a.Left, b.Left, fn), zipMap(a.Right, b.Right, fn))
}

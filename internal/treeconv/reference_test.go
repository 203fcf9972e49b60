package treeconv

// The per-tree float64 reference: tree convolution by recursion over linked
// trees and dynamic pooling by a pre-order walk, allocating freely, written
// as the paper states them. The product trains with the batched tape
// (train.go, subtrees.go) and scores with the float32 panels (f32.go,
// rows.go); the parity tests hold both to these passes, which no product
// code calls.

import "math"

// refTree is a binary tree of feature vectors, as a plan is: a node has two
// children or none. Leaves have nil children, which the convolution treats
// as all-zero vectors, exactly as the paper attaches zero-filled children to
// leaf nodes.
type refTree struct {
	Data        []float64
	Left, Right *refTree
}

func newLeaf(data []float64) *refTree { return &refTree{Data: data} }

func newNode(data []float64, left, right *refTree) *refTree {
	return &refTree{Data: data, Left: left, Right: right}
}

// NumNodes returns the number of nodes in the tree.
func (t *refTree) NumNodes() int {
	if t == nil {
		return 0
	}
	return 1 + t.Left.NumNodes() + t.Right.NumNodes()
}

// Walk visits every node in pre-order.
func (t *refTree) Walk(fn func(*refTree)) {
	if t == nil {
		return
	}
	fn(t)
	t.Left.Walk(fn)
	t.Right.Walk(fn)
}

// treeIDs numbers reference trees by pointer, children first: the id space
// (Nodes) the product reads them through. One tree is one id wherever it
// occurs, as one plan node is in a plan encoder. The zero value is empty.
type treeIDs struct {
	rows        [][]float64
	left, right []int32
	ids         map[*refTree]int32
}

// Node implements Nodes.
func (s *treeIDs) Node(id int32) (row []float64, left, right int32) {
	return s.rows[id], s.left[id], s.right[id]
}

// id returns t's id, numbering t and whatever below it is new.
func (s *treeIDs) id(t *refTree) int32 {
	if id, ok := s.ids[t]; ok {
		return id
	}
	l, r := int32(-1), int32(-1)
	if t.Left != nil {
		l, r = s.id(t.Left), s.id(t.Right)
	}
	if s.ids == nil {
		s.ids = make(map[*refTree]int32)
	}
	id := int32(len(s.rows))
	s.rows, s.left, s.right = append(s.rows, t.Data), append(s.left, l), append(s.right, r)
	s.ids[t] = id
	return id
}

// Map returns a structurally identical tree whose node vectors are fn(node).
func (t *refTree) Map(fn func(*refTree) []float64) *refTree {
	if t == nil {
		return nil
	}
	return newNode(fn(t), t.Left.Map(fn), t.Right.Map(fn))
}

// Tape records one forward pass through a layer for backpropagation.
type Tape struct {
	input  *refTree
	preAct *refTree // pre-activation outputs, same structure
	output *refTree
}

// Output returns the convolved tree.
func (t *Tape) Output() *refTree { return t.output }

// Forward convolves the filterbank over the tree and applies the activation.
func (l *Layer) Forward(t *refTree) *Tape {
	if t == nil {
		return &Tape{}
	}
	pre := l.convolve(t)
	out := pre.Map(func(n *refTree) []float64 { return l.leaky(n.Data) })
	return &Tape{input: t, preAct: pre, output: out}
}

func (l *Layer) convolve(t *refTree) *refTree {
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
	return newNode(out, l.convolve(t.Left), l.convolve(t.Right))
}

// Backward propagates a gradient tree (same structure as the output) through
// the layer, accumulating filter gradients and returning the gradient tree
// with respect to the input.
func (l *Layer) Backward(tape *Tape, gradOut *refTree) *refTree {
	if tape.input == nil || gradOut == nil {
		return nil
	}
	// Gradient of the activation.
	gradPre := zipMap(tape.preAct, gradOut, func(pre, g []float64) []float64 {
		return l.leakyGrad(pre, g)
	})
	// Allocate a zero gradient tree matching the input.
	gradIn := tape.input.Map(func(n *refTree) []float64 { return make([]float64, l.InChannels) })
	l.backwardNode(tape.input, gradPre, gradIn)
	return gradIn
}

// backwardNode handles one parent/left/right triangle.
func (l *Layer) backwardNode(in, gradPre, gradIn *refTree) {
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

// StackTape records the per-layer tapes of one forward pass.
type StackTape struct {
	tapes  []*Tape
	output *refTree
}

// Output returns the final convolved tree.
func (t *StackTape) Output() *refTree { return t.output }

// Forward runs every layer in sequence.
func (s *Stack) Forward(t *refTree) *StackTape {
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
func (s *Stack) Backward(tape *StackTape, gradOut *refTree) *refTree {
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
func DynamicPool(t *refTree) (pooled []float64, argmax []*refTree) {
	if t == nil {
		return nil, nil
	}
	dim := len(t.Data)
	pooled = make([]float64, dim)
	argmax = make([]*refTree, dim)
	for i := range pooled {
		pooled[i] = math.Inf(-1)
	}
	t.Walk(func(n *refTree) {
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
func PoolBackward(t *refTree, argmax []*refTree, grad []float64) *refTree {
	if t == nil {
		return nil
	}
	dim := len(t.Data)
	gradTree := t.Map(func(n *refTree) []float64 { return make([]float64, dim) })
	// Build a mapping from original nodes to gradient nodes by walking both
	// trees in the same order.
	var origs, grads []*refTree
	t.Walk(func(n *refTree) { origs = append(origs, n) })
	gradTree.Walk(func(n *refTree) { grads = append(grads, n) })
	index := make(map[*refTree]*refTree, len(origs))
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

func zerosIfNil(t *refTree, dim int) []float64 {
	if t == nil {
		return make([]float64, dim)
	}
	return t.Data
}

func zipMap(a, b *refTree, fn func(av, bv []float64) []float64) *refTree {
	if a == nil || b == nil {
		return nil
	}
	return newNode(fn(a.Data, b.Data), zipMap(a.Left, b.Left, fn), zipMap(a.Right, b.Right, fn))
}

// leaky applies the layer's leaky ReLU to x.
func (l *Layer) leaky(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			y[i] = v
		} else {
			y[i] = l.Act.Alpha * v
		}
	}
	return y
}

// leakyGrad returns the leaky ReLU's input gradient at x.
func (l *Layer) leakyGrad(x, gradOut []float64) []float64 {
	gradIn := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = l.Act.Alpha * gradOut[i]
		}
	}
	return gradIn
}

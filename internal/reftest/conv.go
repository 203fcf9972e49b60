package reftest

import "math"

// Conv is one tree-convolution layer (Section 4.2): every node's output is
// EP·parent + EL·left + ER·right + Bias over In-wide node vectors, each
// matrix Out×In row-major, followed by a leaky ReLU of slope Alpha.
type Conv struct {
	In, Out          int
	EP, EL, ER, Bias Param
	Alpha            float64
}

// ConvTape records one layer's pass: its input, its pre-activation and its
// activated output, all shaped like the input tree.
type ConvTape struct {
	In, Pre, Out *Tree
}

// Forward convolves the filterbank over the tree and applies the
// activation.
func (l *Conv) Forward(t *Tree) *ConvTape {
	pre := l.convolve(t)
	return &ConvTape{In: t, Pre: pre, Out: pre.Map(func(n *Tree) []float64 { return Leaky(l.Alpha, n.Data) })}
}

// convolve applies the filterbank to every parent/left/right triangle of t,
// a leaf's missing children reading as zero vectors.
func (l *Conv) convolve(t *Tree) *Tree {
	if t == nil {
		return nil
	}
	out := make([]float64, l.Out)
	leftData := zerosIfNil(t.Left, l.In)
	rightData := zerosIfNil(t.Right, l.In)
	for o := 0; o < l.Out; o++ {
		sum := l.Bias.Value[o]
		ep := l.EP.Value[o*l.In : (o+1)*l.In]
		el := l.EL.Value[o*l.In : (o+1)*l.In]
		er := l.ER.Value[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			sum += ep[i] * t.Data[i]
			sum += el[i] * leftData[i]
			sum += er[i] * rightData[i]
		}
		out[o] = sum
	}
	return Join(out, l.convolve(t.Left), l.convolve(t.Right))
}

// Backward propagates a gradient tree shaped like the output through the
// layer, accumulating filter gradients, and returns the gradient tree of
// the input.
func (l *Conv) Backward(tape *ConvTape, gradOut *Tree) *Tree {
	if tape.In == nil || gradOut == nil {
		return nil
	}
	gradPre := zip(tape.Pre, gradOut, func(pre, g []float64) []float64 { return LeakyGrad(l.Alpha, pre, g) })
	gradIn := tape.In.Map(func(*Tree) []float64 { return make([]float64, l.In) })
	l.backwardNode(tape.In, gradPre, gradIn)
	return gradIn
}

// backwardNode handles one parent/left/right triangle, then recurses in
// pre-order.
func (l *Conv) backwardNode(in, gradPre, gradIn *Tree) {
	if in == nil || gradPre == nil {
		return
	}
	leftData := zerosIfNil(in.Left, l.In)
	rightData := zerosIfNil(in.Right, l.In)
	for o := 0; o < l.Out; o++ {
		g := gradPre.Data[o]
		if g == 0 {
			continue
		}
		l.Bias.Grad[o] += g
		ep := l.EP.Value[o*l.In : (o+1)*l.In]
		el := l.EL.Value[o*l.In : (o+1)*l.In]
		er := l.ER.Value[o*l.In : (o+1)*l.In]
		epg := l.EP.Grad[o*l.In : (o+1)*l.In]
		elg := l.EL.Grad[o*l.In : (o+1)*l.In]
		erg := l.ER.Grad[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
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

func zerosIfNil(t *Tree, dim int) []float64 {
	if t == nil {
		return make([]float64, dim)
	}
	return t.Data
}

// Stack is a sequence of convolution layers.
type Stack []*Conv

// StackTape holds one tape per layer of a stack's forward pass.
type StackTape []*ConvTape

// Output returns the last layer's output tree.
func (t StackTape) Output() *Tree { return t[len(t)-1].Out }

// Forward runs t through every layer in sequence.
func (s Stack) Forward(t *Tree) StackTape {
	tape := make(StackTape, len(s))
	for i, l := range s {
		tape[i] = l.Forward(t)
		t = tape[i].Out
	}
	return tape
}

// Backward propagates a gradient tree shaped like the last layer's output
// back through every layer and returns the gradient tree of the input.
func (s Stack) Backward(tape StackTape, gradOut *Tree) *Tree {
	grad := gradOut
	for i := len(s) - 1; i >= 0; i-- {
		grad = s[i].Backward(tape[i], grad)
	}
	return grad
}

// Pool is dynamic pooling: the channel-wise maximum over t's nodes, visited
// in pre-order under strict comparison, and for every channel the node that
// supplied it.
func Pool(t *Tree) (pooled []float64, argmax []*Tree) {
	if t == nil {
		return nil, nil
	}
	pooled = make([]float64, len(t.Data))
	argmax = make([]*Tree, len(t.Data))
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

// PoolBackward routes each channel's gradient to the node argmax names: a
// gradient tree shaped like t, zero everywhere else.
func PoolBackward(t *Tree, argmax []*Tree, grad []float64) *Tree {
	return t.Map(func(n *Tree) []float64 {
		g := make([]float64, len(t.Data))
		for c, src := range argmax {
			if src == n {
				g[c] += grad[c]
			}
		}
		return g
	})
}

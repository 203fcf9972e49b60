// Batched tree-convolution training over a subtree table (subtrees.go): a
// recorded StackBatchTape retains every layer's pre-activation matrix, one
// row per table entry, so BackwardBatch can propagate a gradient matrix
// through the whole stack, and PoolBatchTape replaces the per-tree dynamic
// pooling with a fold over the table that records, per (forest, channel),
// which row supplied the maximum.
//
// Bit-parity contract: the backward pass visits rows in the table's
// first-visit pre-order. For forests that share no subtree that is the order
// the per-tree recursion of the reference convolution's backward pass
// (internal/reftest) visits their nodes in, so every parameter element
// accumulates its gradient contributions in the same floating-point order as
// the per-tree reference. A row shared by several
// parents or forests receives the sum of their gradients before it
// backpropagates once, which reassociates those sums (~1e-9 per step).
package treeconv

import (
	"math"
	"slices"

	"neo/internal/nn"
)

// ShadowGrad returns a Layer sharing l's filter weights with private, zeroed
// gradient buffers (see nn.Param.ShadowGrad).
func (l *Layer) ShadowGrad() *Layer {
	return &Layer{
		InChannels:  l.InChannels,
		OutChannels: l.OutChannels,
		EP:          l.EP.ShadowGrad(),
		EL:          l.EL.ShadowGrad(),
		ER:          l.ER.ShadowGrad(),
		Bias:        l.Bias.ShadowGrad(),
		Act:         l.Act,
	}
}

// ShadowGrad returns a Stack sharing s's weights with private gradient
// buffers.
func (s *Stack) ShadowGrad() *Stack {
	out := &Stack{}
	for _, l := range s.Layers {
		out.Layers = append(out.Layers, l.ShadowGrad())
	}
	return out
}

// StackBatchTape records one batched forward pass through the stack for
// backpropagation: the table and its input rows plus, per layer, the
// pre-activation matrix and the activated output matrix, one row per table
// entry. All float storage is drawn from the arena passed when recording; the
// tape's own headers are reused by the next RecordBatch on it.
type StackBatchTape struct {
	tab  *Subtrees
	in   []float64
	pre  [][]float64 // per layer: Len×OutChannels pre-activation values
	outs [][]float64 // per layer: activated outputs
}

// Output returns the last layer's activations, one row per table entry.
func (t *StackBatchTape) Output() []float64 { return t.outs[len(t.outs)-1] }

// RecordBatch runs every layer over the table's entries, whose input rows
// in holds (tab.Len() rows of the first layer's InChannels), recording into t
// for BackwardBatch: every layer's pre-activation matrix and activated
// output. Per row the convolution performs the same operations in the same
// order as the reference convolution, so outputs are bit-identical to the
// per-tree forward pass of internal/reftest.
func (s *Stack) RecordBatch(t *StackBatchTape, tab *Subtrees, in []float64, a *nn.Arena[float64]) {
	t.tab, t.in = tab, in
	t.pre, t.outs = t.pre[:0], t.outs[:0]
	cur := in
	for _, l := range s.Layers {
		pre := a.Alloc(tab.Len() * l.OutChannels)
		l.convBatchPre(tab, cur, pre)
		out := a.Alloc(len(pre))
		alpha := l.Act.Alpha
		for i, v := range pre {
			if v >= 0 {
				out[i] = v
			} else {
				out[i] = alpha * v
			}
		}
		t.pre = append(t.pre, pre)
		t.outs = append(t.outs, out)
		cur = out
	}
}

// convBatchPre convolves the filterbank over every entry of tab, whose input
// rows in holds, writing the pre-activation values into pre. Plan trees are
// binary, so every node is a leaf or a join, and each gets a specialised
// kernel: leaves skip the child dot products against the zero padding
// entirely (dropping a w·0 term leaves the accumulator bit-identical up to
// the sign of zero, which compares equal) and joins run a 4-way-unrolled
// kernel whose per-channel operation order matches the reference
// convolution (internal/reftest) exactly.
// With a Packed copy of the weights and the vector kernels, the panel kernel
// (nn.PackedF64) does each of the two in the same order, four channels per
// vector.
func (l *Layer) convBatchPre(tab *Subtrees, in, pre []float64) {
	ic := l.InChannels
	row := func(n int32) []float64 { return in[int(n)*ic : int(n+1)*ic] }
	vector := l.Packed != nil && nn.VectorKernels()
	for n := range int32(tab.Len()) {
		x := row(n)
		y := pre[int(n)*l.OutChannels : int(n+1)*l.OutChannels]
		li, ri := tab.Left[n], tab.Right[n]
		switch {
		case li < 0 && vector:
			l.Packed.Forward(y, x)
		case li < 0:
			l.convLeafPre(x, y)
		case vector:
			l.Packed.Forward3(y, x, row(li), row(ri))
		default:
			l.convBothPre(x, row(li), row(ri), y)
		}
	}
}

// convBothPre convolves one node with both children present. Four output
// channels per pass: four independent accumulator chains hide the
// floating-point add latency that serialises the per-channel dot products,
// and every input load is shared by the four filters. Within a channel the
// operation order matches the reference convolution exactly.
func (l *Layer) convBothPre(x, xl, xr, y []float64) {
	ic := l.InChannels
	o := 0
	for ; o+4 <= l.OutChannels; o += 4 {
		ep0 := l.EP.Value[o*ic : o*ic+ic]
		ep1 := l.EP.Value[(o+1)*ic : (o+1)*ic+ic]
		ep2 := l.EP.Value[(o+2)*ic : (o+2)*ic+ic]
		ep3 := l.EP.Value[(o+3)*ic : (o+3)*ic+ic]
		el0 := l.EL.Value[o*ic : o*ic+ic]
		el1 := l.EL.Value[(o+1)*ic : (o+1)*ic+ic]
		el2 := l.EL.Value[(o+2)*ic : (o+2)*ic+ic]
		el3 := l.EL.Value[(o+3)*ic : (o+3)*ic+ic]
		er0 := l.ER.Value[o*ic : o*ic+ic]
		er1 := l.ER.Value[(o+1)*ic : (o+1)*ic+ic]
		er2 := l.ER.Value[(o+2)*ic : (o+2)*ic+ic]
		er3 := l.ER.Value[(o+3)*ic : (o+3)*ic+ic]
		s0 := l.Bias.Value[o]
		s1 := l.Bias.Value[o+1]
		s2 := l.Bias.Value[o+2]
		s3 := l.Bias.Value[o+3]
		for i := 0; i < ic; i++ {
			xv, lv, rv := x[i], xl[i], xr[i]
			s0 += ep0[i] * xv
			s0 += el0[i] * lv
			s0 += er0[i] * rv
			s1 += ep1[i] * xv
			s1 += el1[i] * lv
			s1 += er1[i] * rv
			s2 += ep2[i] * xv
			s2 += el2[i] * lv
			s2 += er2[i] * rv
			s3 += ep3[i] * xv
			s3 += el3[i] * lv
			s3 += er3[i] * rv
		}
		y[o] = s0
		y[o+1] = s1
		y[o+2] = s2
		y[o+3] = s3
	}
	for ; o < l.OutChannels; o++ {
		sum := l.Bias.Value[o]
		ep := l.EP.Value[o*ic : o*ic+ic]
		el := l.EL.Value[o*ic : o*ic+ic]
		er := l.ER.Value[o*ic : o*ic+ic]
		for i := 0; i < ic; i++ {
			sum += ep[i] * x[i]
			sum += el[i] * xl[i]
			sum += er[i] * xr[i]
		}
		y[o] = sum
	}
}

// convLeafPre convolves a childless node: only the parent filterbank
// contributes.
func (l *Layer) convLeafPre(x, y []float64) {
	ic := l.InChannels
	o := 0
	for ; o+4 <= l.OutChannels; o += 4 {
		ep0 := l.EP.Value[o*ic : o*ic+ic]
		ep1 := l.EP.Value[(o+1)*ic : (o+1)*ic+ic]
		ep2 := l.EP.Value[(o+2)*ic : (o+2)*ic+ic]
		ep3 := l.EP.Value[(o+3)*ic : (o+3)*ic+ic]
		s0 := l.Bias.Value[o]
		s1 := l.Bias.Value[o+1]
		s2 := l.Bias.Value[o+2]
		s3 := l.Bias.Value[o+3]
		for i, xv := range x {
			s0 += ep0[i] * xv
			s1 += ep1[i] * xv
			s2 += ep2[i] * xv
			s3 += ep3[i] * xv
		}
		y[o] = s0
		y[o+1] = s1
		y[o+2] = s2
		y[o+3] = s3
	}
	for ; o < l.OutChannels; o++ {
		sum := l.Bias.Value[o]
		ep := l.EP.Value[o*ic : o*ic+ic]
		for i, xv := range x {
			sum += ep[i] * xv
		}
		y[o] = sum
	}
}

// BackwardBatch propagates a Len×lastChannels gradient matrix through the
// taped forward pass, accumulating filter gradients, and returns the
// Len×inChannels gradient with respect to the input rows.
func (s *Stack) BackwardBatch(t *StackBatchTape, gradOut []float64, a *nn.Arena[float64]) []float64 {
	grad := gradOut
	for li := len(s.Layers) - 1; li >= 0; li-- {
		l := s.Layers[li]
		in := t.in
		if li > 0 {
			in = t.outs[li-1]
		}
		pre := t.pre[li]
		// Activation backward (elementwise over the whole batch).
		gradPre := a.Alloc(len(pre))
		alpha := l.Act.Alpha
		for i, v := range pre {
			if v >= 0 {
				gradPre[i] = grad[i]
			} else {
				gradPre[i] = alpha * grad[i]
			}
		}
		gradIn := a.Alloc(len(in))
		for i := range gradIn {
			gradIn[i] = 0
		}
		l.backwardBatchNodes(t.tab, in, gradPre, gradIn)
		grad = gradIn
	}
	return grad
}

// backwardBatchNodes is the flat analogue of the reference's per-tree
// backward recursion (internal/reftest): one pass over the
// table's rows in first-visit pre-order, accumulating filter gradients and
// scattering input gradients to each row and its children. A row goes
// through one filterbank at a time — parent, then, for a join, left and
// right; a leaf's child terms are g·0 and dropped, as in the forward
// kernels. The three banks share no accumulator, so every gradient
// element still receives its addends in the recursion's order — channels
// ascending within a node, nodes in pre-order — and for forests that share
// nothing the result is bit-identical to the per-tree recursion.
func (l *Layer) backwardBatchNodes(tab *Subtrees, in, gradPre, gradIn []float64) {
	ic := l.InChannels
	oc := l.OutChannels
	for _, n := range tab.Pre {
		gp := gradPre[int(n)*oc : int(n+1)*oc]
		for o, g := range gp {
			if g != 0 {
				l.Bias.Grad[o] += g
			}
		}
		backwardBank(l.EP, ic, gp, in[int(n)*ic:int(n+1)*ic], gradIn[int(n)*ic:int(n+1)*ic])
		if li, ri := int(tab.Left[n]), int(tab.Right[n]); li >= 0 {
			backwardBank(l.EL, ic, gp, in[li*ic:(li+1)*ic], gradIn[li*ic:(li+1)*ic])
			backwardBank(l.ER, ic, gp, in[ri*ic:(ri+1)*ic], gradIn[ri*ic:(ri+1)*ic])
		}
	}
}

// backwardBank backpropagates one node's channel gradients gp through the
// filterbank w applied to the input row x, whose gradient row is gin. A zero
// channel gradient contributes nothing and is skipped — most of the last
// layer, where dynamic pooling routes each channel's gradient to one node per
// sample; four consecutive non-zero ones go through nn.Backward4.
func backwardBank(w *nn.Param, ic int, gp, x, gin []float64) {
	for o := 0; o < len(gp); {
		if o+4 <= len(gp) && gp[o] != 0 && gp[o+1] != 0 && gp[o+2] != 0 && gp[o+3] != 0 {
			nn.Backward4(w, ic, o, gp[o:o+4], x, gin)
			o += 4
			continue
		}
		if g := gp[o]; g != 0 {
			val := w.Value[o*ic : (o+1)*ic]
			grad := w.Grad[o*ic : (o+1)*ic]
			for i := 0; i < ic; i++ {
				grad[i] += g * x[i]
				gin[i] += g * val[i]
			}
		}
		o++
	}
}

// PoolBatchTape dynamic-pools the forests of a batch over a subtree table
// and records, per (forest, channel), which row supplied the maximum, for
// Backward. Its buffers are reused from call to call.
type PoolBatchTape struct {
	dim    int
	sub    []int // per entry and channel: the row supplying the subtree's maximum
	argmax []int // per forest and channel: the row supplying the forest's maximum, −1 for none
}

// Forward pools the last layer's activations out (one dim-wide row per entry
// of tab) into one row per forest, forest s being the entries roots[s]. It
// folds every subtree's per-channel maximum from its own row and its
// children's maxima — own row, then left, then right: the pre-order the
// reference pooling (internal/reftest) visits nodes in — with its strict
// comparison, children before parents, then folds each
// forest's roots in order. So ties keep the first row in pre-order and a NaN
// never wins, as in the per-sample reference. An empty forest, and a channel that is −Inf or NaN
// throughout, pools to 0.
func (p *PoolBatchTape) Forward(tab *Subtrees, out []float64, dim int, roots [][]int32, a *nn.Arena[float64]) []float64 {
	p.dim = dim
	subMax := a.Alloc(tab.Len() * dim)
	p.sub = slices.Grow(p.sub[:0], len(subMax))[:len(subMax)]
	negInf := math.Inf(-1)
	// fold raises acc to entry e's subtree maximum wherever that is greater,
	// taking the row that supplied it.
	fold := func(acc []float64, arg []int, e int32) {
		sub := p.sub[int(e)*dim : int(e+1)*dim]
		for c, v := range subMax[int(e)*dim : int(e+1)*dim] {
			if v > acc[c] {
				acc[c], arg[c] = v, sub[c]
			}
		}
	}
	for e := range int32(tab.Len()) {
		acc, arg := subMax[int(e)*dim:int(e+1)*dim], p.sub[int(e)*dim:int(e+1)*dim]
		for c, v := range out[int(e)*dim : int(e+1)*dim] {
			acc[c], arg[c] = negInf, -1
			if v > negInf {
				acc[c], arg[c] = v, int(e)
			}
		}
		if l := tab.Left[e]; l >= 0 {
			fold(acc, arg, l)
			fold(acc, arg, tab.Right[e])
		}
	}
	pooled := a.Alloc(len(roots) * dim)
	p.argmax = slices.Grow(p.argmax[:0], len(pooled))[:len(pooled)]
	for s, rs := range roots {
		acc, arg := pooled[s*dim:(s+1)*dim], p.argmax[s*dim:(s+1)*dim]
		for c := range acc {
			acc[c], arg[c] = negInf, -1
		}
		for _, e := range rs {
			fold(acc, arg, e)
		}
		for c, v := range acc {
			if v == negInf {
				acc[c] = 0
			}
		}
	}
	return pooled
}

// Backward scatters a forests×dim pooled-gradient matrix back to the rows:
// each (forest, channel) gradient adds onto the row Forward recorded, so a
// row that supplied several forests' maxima receives their sum, and every
// other row's gradient is zero.
func (p *PoolBatchTape) Backward(gradPooled []float64, a *nn.Arena[float64]) []float64 {
	grad := a.Alloc(len(p.sub))
	for i := range grad {
		grad[i] = 0
	}
	for i, n := range p.argmax {
		if n >= 0 {
			grad[n*p.dim+i%p.dim] += gradPooled[i]
		}
	}
	return grad
}

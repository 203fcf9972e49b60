// Batched tree-convolution training over the flattened layout of batch.go:
// a recorded StackBatchTape retains every layer's pre-activation matrix so
// BackwardBatch can propagate a flat gradient matrix through the whole stack
// — and PoolForwardBatch / PoolBackwardBatch replace the per-tree dynamic
// pooling with a single flat pass that records, per (sample, channel), which
// node supplied the maximum.
//
// Bit-parity contract: nodes are visited in the flattened order BatchBuilder
// assigns (forests in sample order, trees in forest order, nodes in
// pre-order), which is exactly the order the per-tree recursion of
// Layer.backwardNode visits them, so every parameter element accumulates its
// gradient contributions in the same floating-point order as the per-sample
// path.
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
// backpropagation: the input batch plus, per layer, the pre-activation
// matrix and the activated output batch. All float storage is drawn from the
// arena passed when recording; the tape's own headers are reused by the next
// RecordBatch on it.
type StackBatchTape struct {
	in   *Batch[float64]
	pre  [][]float64      // per layer: N×OutChannels pre-activation values
	outs []Batch[float64] // per layer: activated outputs
}

// Output returns the final convolved batch.
func (t *StackBatchTape) Output() *Batch[float64] { return &t.outs[len(t.outs)-1] }

// RecordBatch runs every layer over the flattened batch, recording into t for
// BackwardBatch: every layer's pre-activation matrix and activated output.
// Per node the convolution performs the same operations in the same order as
// Layer.convolve, so outputs are bit-identical to the per-tree Forward.
func (s *Stack) RecordBatch(t *StackBatchTape, in *Batch[float64], a *nn.Arena[float64]) {
	zeros := a.Alloc(s.maxInChannels())
	for i := range zeros {
		zeros[i] = 0
	}
	t.in = in
	t.pre = t.pre[:0]
	// Sized up front: cur points into outs while later layers are appended.
	t.outs = slices.Grow(t.outs[:0], len(s.Layers))
	cur := in
	for _, l := range s.Layers {
		pre := a.Alloc(in.N * l.OutChannels)
		l.convBatchPre(cur, pre, zeros)
		t.outs = append(t.outs, Batch[float64]{
			Channels: l.OutChannels,
			N:        cur.N,
			Samples:  cur.Samples,
			Left:     cur.Left,
			Right:    cur.Right,
			Sample:   cur.Sample,
			Data:     a.Alloc(cur.N * l.OutChannels),
		})
		out := &t.outs[len(t.outs)-1]
		alpha := l.Act.Alpha
		for i, v := range pre {
			if v >= 0 {
				out.Data[i] = v
			} else {
				out.Data[i] = alpha * v
			}
		}
		t.pre = append(t.pre, pre)
		cur = out
	}
}

func (s *Stack) maxInChannels() int {
	maxIn := 0
	for _, l := range s.Layers {
		if l.InChannels > maxIn {
			maxIn = l.InChannels
		}
	}
	return maxIn
}

// convBatchPre convolves the filterbank over every node of in, writing the
// pre-activation values into pre. Plan trees are strictly binary, so almost
// every node is either a leaf or a join, and each gets a specialised kernel:
// childless nodes skip the child dot products against the zero padding
// entirely (dropping a w·0 term leaves the accumulator bit-identical up to
// the sign of zero, which compares equal) and join nodes run a 4-way-unrolled
// kernel whose per-channel operation order matches Layer.convolve exactly;
// one-child nodes convolve against explicit zero padding exactly like
// Layer.convolve.
func (l *Layer) convBatchPre(in *Batch[float64], pre, zeros []float64) {
	ic := l.InChannels
	for n := 0; n < in.N; n++ {
		x := in.Row(n)
		y := pre[n*l.OutChannels : (n+1)*l.OutChannels]
		li, ri := in.Left[n], in.Right[n]
		switch {
		case li < 0 && ri < 0:
			l.convLeafPre(x, y)
		case li >= 0 && ri >= 0:
			l.convBothPre(x, in.Row(li), in.Row(ri), y)
		default:
			xl, xr := zeros[:ic], zeros[:ic]
			if li >= 0 {
				xl = in.Row(li)
			}
			if ri >= 0 {
				xr = in.Row(ri)
			}
			for o := 0; o < l.OutChannels; o++ {
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
	}
}

// convBothPre convolves one node with both children present. Four output
// channels per pass: four independent accumulator chains hide the
// floating-point add latency that serialises the per-channel dot products,
// and every input load is shared by the four filters. Within a channel the
// operation order matches Layer.convolve exactly.
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

// BackwardBatch propagates a flat N×lastChannels gradient matrix through the
// taped forward pass, accumulating filter gradients, and returns the
// N×inChannels gradient with respect to the input batch's node vectors.
func (s *Stack) BackwardBatch(t *StackBatchTape, gradOut []float64, a *nn.Arena[float64]) []float64 {
	grad := gradOut
	for li := len(s.Layers) - 1; li >= 0; li-- {
		l := s.Layers[li]
		in := t.in
		if li > 0 {
			in = &t.outs[li-1]
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
		gradIn := a.Alloc(in.N * l.InChannels)
		for i := range gradIn {
			gradIn[i] = 0
		}
		l.backwardBatchNodes(in, gradPre, gradIn)
		grad = gradIn
	}
	return grad
}

// backwardBatchNodes is the flat analogue of backwardNode: one pass over the
// batch's nodes in flattened pre-order, accumulating filter gradients and
// scattering input gradients to each node and its children. A node goes
// through one filterbank at a time — parent, then left and right where that
// child exists; an absent child's terms are g·0 and dropped, as in the
// forward kernels. The three banks share no accumulator, so every gradient
// element still receives its addends in backwardNode's order — channels
// ascending within a node, nodes in pre-order — and the result is
// bit-identical to the per-tree recursion.
func (l *Layer) backwardBatchNodes(in *Batch[float64], gradPre, gradIn []float64) {
	ic := l.InChannels
	oc := l.OutChannels
	for n := 0; n < in.N; n++ {
		gp := gradPre[n*oc : (n+1)*oc]
		for o, g := range gp {
			if g != 0 {
				l.Bias.Grad[o] += g
			}
		}
		backwardBank(l.EP, ic, gp, in.Row(n), gradIn[n*ic:(n+1)*ic])
		if li := in.Left[n]; li >= 0 {
			backwardBank(l.EL, ic, gp, in.Row(li), gradIn[li*ic:(li+1)*ic])
		}
		if ri := in.Right[n]; ri >= 0 {
			backwardBank(l.ER, ic, gp, in.Row(ri), gradIn[ri*ic:(ri+1)*ic])
		}
	}
}

// backwardBank backpropagates one node's channel gradients gp through the
// filterbank w applied to the input row x, whose gradient row is gin. A zero
// channel gradient contributes nothing and is skipped — most of the last
// layer, where dynamic pooling routes each channel's gradient to one node per
// sample; four consecutive non-zero ones go through backward4.
func backwardBank(w *nn.Param, ic int, gp, x, gin []float64) {
	for o := 0; o < len(gp); {
		if o+4 <= len(gp) && gp[o] != 0 && gp[o+1] != 0 && gp[o+2] != 0 && gp[o+3] != 0 {
			backward4(w, ic, o, gp[o:o+4], x, gin)
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

// backward4 is backwardBank's kernel for output channels o..o+3 (gradients
// g): each input is loaded once for the four filter-gradient rows, and each
// element of gin stays in a register while the four channels add to it in
// ascending order. Working on one bank keeps the loop's ten row pointers in
// registers.
func backward4(w *nn.Param, ic, o int, g, x, gin []float64) {
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	val := w.Value[o*ic : (o+4)*ic]
	grad := w.Grad[o*ic : (o+4)*ic]
	w0, w1, w2, w3 := val[:ic], val[ic:][:ic], val[2*ic:][:ic], val[3*ic:][:ic]
	wg0, wg1, wg2, wg3 := grad[:ic], grad[ic:][:ic], grad[2*ic:][:ic], grad[3*ic:][:ic]
	x, gin = x[:ic], gin[:ic]
	for i := 0; i < ic; i++ {
		xv := x[i]
		wg0[i] += g0 * xv
		wg1[i] += g1 * xv
		wg2[i] += g2 * xv
		wg3[i] += g3 * xv
		t := gin[i]
		t += g0 * w0[i]
		t += g1 * w1[i]
		t += g2 * w2[i]
		t += g3 * w3[i]
		gin[i] = t
	}
}

// PoolForwardBatch dynamic-pools every sample of the batch — row s of pooled
// is the elementwise maximum over the node vectors of sample s, 0 for an
// empty sample — and records argmax[s*Channels+c], the index of the node that
// supplied sample s's maximum for channel c (-1 for empty samples). Ties keep
// the first node in flattened order, which matches the per-tree DynamicPool
// argmax combined with the cross-tree strict-greater ownership comparison of
// the per-sample forward pass. The argmax slice is (re)used from argmaxBuf
// when it has capacity.
func PoolForwardBatch(b *Batch[float64], a *nn.Arena[float64], argmaxBuf []int) (pooled []float64, argmax []int) {
	dim := b.Channels
	pooled = a.Alloc(b.Samples * dim)
	if cap(argmaxBuf) < b.Samples*dim {
		argmax = make([]int, b.Samples*dim)
	} else {
		argmax = argmaxBuf[:b.Samples*dim]
	}
	for i := range pooled {
		pooled[i] = math.Inf(-1)
		argmax[i] = -1
	}
	for n := 0; n < b.N; n++ {
		base := b.Sample[n] * dim
		row := pooled[base : base+dim]
		for i, v := range b.Row(n) {
			if v > row[i] {
				row[i] = v
				argmax[base+i] = n
			}
		}
	}
	for i := range pooled {
		if math.IsInf(pooled[i], -1) {
			pooled[i] = 0
		}
	}
	return pooled, argmax
}

// PoolBackwardBatch scatters a Samples×Channels pooled-gradient matrix back
// to the node level: every (sample, channel) gradient lands on the argmax
// node recorded by PoolForwardBatch, all other node gradients are zero.
func PoolBackwardBatch(b *Batch[float64], argmax []int, gradPooled []float64, a *nn.Arena[float64]) []float64 {
	dim := b.Channels
	gradNodes := a.Alloc(b.N * dim)
	for i := range gradNodes {
		gradNodes[i] = 0
	}
	for s := 0; s < b.Samples; s++ {
		for c := 0; c < dim; c++ {
			n := argmax[s*dim+c]
			if n < 0 {
				continue
			}
			gradNodes[n*dim+c] += gradPooled[s*dim+c]
		}
	}
	return gradNodes
}

// Batched training primitives. The batch.go forward pass serves inference
// only (no tape); the routines here extend the same flattened row-major
// layout to training: ForwardBatchTape records every intermediate activation
// matrix so BackwardBatch can run one backward pass over the whole minibatch,
// accumulating parameter gradients row by row in sample order.
//
// Bit-parity contract: for any fixed row, every batched routine performs the
// same floating-point operations in the same order as its per-sample
// counterpart, and parameter gradients accumulate contributions in row order
// — exactly the order the per-sample training loop accumulates them. A
// parameter element therefore receives a bit-identical gradient from the
// batched backward pass and from per-sample Backward calls over the same
// rows.
package nn

// ShadowGrad returns a Param that shares p's value storage but owns a
// private, zeroed gradient buffer. Data-parallel gradient workers each
// backpropagate into a shadow of the network, then the per-shard gradients
// are reduced in deterministic shard order (see valuenet's TrainBatch).
func (p *Param) ShadowGrad() *Param {
	return &Param{Name: p.Name, Value: p.Value, Grad: make([]float64, len(p.Grad))}
}

// ShadowGrad returns a Linear sharing l's weights with private gradient
// buffers.
func (l *Linear) ShadowGrad() *Linear {
	return &Linear{In: l.In, Out: l.Out, W: l.W.ShadowGrad(), B: l.B.ShadowGrad()}
}

// ShadowGrad returns a LayerNorm sharing ln's parameters with private
// gradient buffers.
func (ln *LayerNorm) ShadowGrad() *LayerNorm {
	return &LayerNorm{Dim: ln.Dim, Gamma: ln.Gamma.ShadowGrad(), Beta: ln.Beta.ShadowGrad(), Eps: ln.Eps}
}

// ShadowGrad returns an MLP sharing m's weights with private gradient
// buffers. The activation is stateless and shared.
func (m *MLP) ShadowGrad() *MLP {
	s := &MLP{Act: m.Act}
	for _, l := range m.Linears {
		s.Linears = append(s.Linears, l.ShadowGrad())
	}
	for _, n := range m.Norms {
		if n != nil {
			s.Norms = append(s.Norms, n.ShadowGrad())
		} else {
			s.Norms = append(s.Norms, nil)
		}
	}
	return s
}

// MLPBatchTape records the intermediate activation matrices of one batched
// forward pass (the batch analogue of MLPTape). All storage is drawn from
// the arena passed to ForwardBatchTape and is valid until its next Reset.
type MLPBatchTape struct {
	rows    int
	inputs  [][]float64 // input matrix to each Linear (rows×In)
	preAct  [][]float64 // Linear outputs, pre-activation
	postAct [][]float64 // activation outputs (input to norm, if any)
	output  []float64
}

// Output returns the forward result (rows×outputDim, row-major).
func (t *MLPBatchTape) Output() []float64 { return t.output }

// Rows returns the number of rows the tape was recorded over.
func (t *MLPBatchTape) Rows() int { return t.rows }

// ForwardBatchTape runs the MLP over rows input rows, recording a tape for
// BackwardBatch. It performs the same operations as ForwardBatch (and, per
// row, the same operations as the per-sample Forward).
func (m *MLP) ForwardBatchTape(xs []float64, rows int, a *Arena[float64]) *MLPBatchTape {
	t := &MLPBatchTape{rows: rows}
	cur := xs
	last := len(m.Linears) - 1
	for i, lin := range m.Linears {
		t.inputs = append(t.inputs, cur)
		pre := lin.ForwardBatch(cur, rows, a)
		t.preAct = append(t.preAct, pre)
		if i == last {
			t.postAct = append(t.postAct, pre)
			cur = pre
			continue
		}
		act := m.Act.ForwardBatch(pre, a)
		t.postAct = append(t.postAct, act)
		if m.Norms[i] != nil {
			cur = m.Norms[i].ForwardBatch(act, rows, a)
		} else {
			cur = act
		}
	}
	t.output = cur
	return t
}

// BackwardBatch propagates the rows×Out gradient matrix through the taped
// forward pass, accumulating parameter gradients, and returns the rows×In
// gradient with respect to the inputs.
func (m *MLP) BackwardBatch(t *MLPBatchTape, gradOut []float64, a *Arena[float64]) []float64 {
	grad := gradOut
	last := len(m.Linears) - 1
	for i := last; i >= 0; i-- {
		if i != last {
			if m.Norms[i] != nil {
				grad = m.Norms[i].BackwardBatch(t.postAct[i], grad, t.rows, a)
			}
			grad = m.Act.BackwardBatch(t.preAct[i], grad, a)
		}
		grad = m.Linears[i].BackwardBatch(t.inputs[i], grad, t.rows, a)
	}
	return grad
}

// BackwardBatch accumulates parameter gradients for rows input rows and
// their output gradients, and returns the input-gradient matrix. Row r is
// processed exactly like Backward(x_r, gradOut_r), and parameter gradients
// accumulate in row order.
func (l *Linear) BackwardBatch(xs, gradOut []float64, rows int, a *Arena[float64]) []float64 {
	if len(xs) != rows*l.In || len(gradOut) != rows*l.Out {
		panic("nn: Linear.BackwardBatch size mismatch")
	}
	gradIn := a.Alloc(rows * l.In)
	for i := range gradIn {
		gradIn[i] = 0
	}
	for r := 0; r < rows; r++ {
		x := xs[r*l.In : (r+1)*l.In]
		gout := gradOut[r*l.Out : (r+1)*l.Out]
		gin := gradIn[r*l.In : (r+1)*l.In]
		for o := 0; o < l.Out; o++ {
			g := gout[o]
			l.B.Grad[o] += g
			row := l.W.Value[o*l.In : (o+1)*l.In]
			gradRow := l.W.Grad[o*l.In : (o+1)*l.In]
			for i, xi := range x {
				gradRow[i] += g * xi
				gin[i] += g * row[i]
			}
		}
	}
	return gradIn
}

// BackwardBatch returns the activation's input gradient over a flattened
// batch.
func (r *LeakyReLU) BackwardBatch(xs, gradOut []float64, a *Arena[float64]) []float64 {
	gradIn := a.Alloc(len(xs))
	for i, v := range xs {
		if v >= 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = r.Alpha * gradOut[i]
		}
	}
	return gradIn
}

// BackwardBatch accumulates gamma/beta gradients for rows input rows and
// returns the input-gradient matrix; each row is processed exactly like
// Backward.
func (ln *LayerNorm) BackwardBatch(xs, gradOut []float64, rows int, a *Arena[float64]) []float64 {
	if len(xs) != rows*ln.Dim || len(gradOut) != rows*ln.Dim {
		panic("nn: LayerNorm.BackwardBatch size mismatch")
	}
	gradIn := a.Alloc(rows * ln.Dim)
	xhat := a.Alloc(ln.Dim)
	dxhat := a.Alloc(ln.Dim)
	n := float64(ln.Dim)
	for r := 0; r < rows; r++ {
		x := xs[r*ln.Dim : (r+1)*ln.Dim]
		gout := gradOut[r*ln.Dim : (r+1)*ln.Dim]
		gin := gradIn[r*ln.Dim : (r+1)*ln.Dim]
		mean, std := meanStd(x, ln.Eps)
		for i, v := range x {
			xhat[i] = (v - mean) / std
		}
		for i := range x {
			ln.Gamma.Grad[i] += gout[i] * xhat[i]
			ln.Beta.Grad[i] += gout[i]
			dxhat[i] = gout[i] * ln.Gamma.Value[i]
		}
		var sumDxhat, sumDxhatXhat float64
		for i := range x {
			sumDxhat += dxhat[i]
			sumDxhatXhat += dxhat[i] * xhat[i]
		}
		for i := range x {
			gin[i] = (dxhat[i] - sumDxhat/n - xhat[i]*sumDxhatXhat/n) / std
		}
	}
	return gradIn
}

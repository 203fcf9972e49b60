// Batched training primitives. The batch.go forward pass keeps no tape; the
// routines here extend the same row-major layout to the backward pass: a
// recorded MLPBatchTape keeps every intermediate
// activation matrix so BackwardBatch can run one backward pass over the whole
// minibatch, accumulating parameter gradients row by row in sample order.
//
// Bit-parity contract: for any fixed row, every batched routine performs the
// same floating-point operations in the same order as its per-sample
// counterpart, and parameter gradients accumulate contributions in row order
// — exactly the order the per-sample training loop accumulates them. A
// parameter element therefore receives a bit-identical gradient from the
// batched backward pass and from per-sample Backward calls over the same
// rows.
//
// An MLP whose input is data rather than another layer's activation is
// recorded with RecordInput: its first layer reads each row through an index
// of the row's non-zeros and computes no input gradient (nothing consumes
// it). A skipped term is w·0 or g·0 — a zero, of either sign — so every
// accumulator receives the same non-zero addends in the same ascending-column
// order as the dense loops: forward sums are equal (at most the sign of an
// exactly-zero sum differs, which compares equal and never reaches a non-zero
// value), and weight gradients, which start at +0 and only ever add, are
// bit-identical (+0 + ±0 = +0).
package nn

import (
	"sync"
	"sync/atomic"
)

// Parallel calls run(0) … run(tasks-1), each exactly once, from up to
// workers goroutines — the calling one included — and returns when all calls
// have. Tasks are claimed in index order; with one worker or one task no
// goroutine is started.
func Parallel(workers, tasks int, run func(task int)) {
	var next atomic.Int64
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= tasks {
				return
			}
			run(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, tasks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// ShadowGrad returns a Param that shares p's value storage but owns a
// private, zeroed gradient buffer. Data-parallel gradient workers each
// backpropagate into a shadow of the network, then the per-shard gradients
// are reduced in deterministic shard order (see Adam.StepShards).
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
// forward pass (the batch analogue of MLPTape). All float storage is drawn
// from the arena passed when recording and is valid until its next Reset; the
// tape's own headers are reused by the next RecordBatch / RecordInput on it.
type MLPBatchTape struct {
	rows    int
	inputs  [][]float64 // input matrix to each Linear (rows×In)
	preAct  [][]float64 // Linear outputs, pre-activation
	postAct [][]float64 // activation outputs (input to norm, if any)
	output  []float64

	// input marks a RecordInput tape; nz then indexes the non-zeros of
	// inputs[0].
	input bool
	nz    sparseRows
}

// Output returns the forward result (rows×outputDim, row-major).
func (t *MLPBatchTape) Output() []float64 { return t.output }

// Rows returns the number of rows the tape was recorded over.
func (t *MLPBatchTape) Rows() int { return t.rows }

// InputColumns returns the columns of a RecordInput tape's non-zero inputs,
// row by row (a column may repeat across rows) — the columns of the first
// layer's weights the tape's backward pass can give a gradient, for
// Adam.MarkColumns. It is valid until the tape is recorded again.
func (t *MLPBatchTape) InputColumns() []int { return t.nz.col }

// RecordBatch runs the MLP over rows input rows, recording into t for
// BackwardBatch. Per row it performs the same operations as the per-sample
// Forward.
func (m *MLP) RecordBatch(t *MLPBatchTape, xs []float64, rows int, a *Arena[float64]) {
	m.record(t, xs, rows, a, false)
}

// RecordInput is RecordBatch for an MLP fed with data: the first layer
// visits only the non-zero entries of xs, and BackwardBatch on the tape stops
// at that layer's weights (see the file comment for why the result is
// exact). How sparse xs is changes the time taken, never the result.
func (m *MLP) RecordInput(t *MLPBatchTape, xs []float64, rows int, a *Arena[float64]) {
	m.record(t, xs, rows, a, true)
}

func (m *MLP) record(t *MLPBatchTape, xs []float64, rows int, a *Arena[float64], input bool) {
	t.rows, t.input = rows, input
	t.inputs, t.preAct, t.postAct = t.inputs[:0], t.preAct[:0], t.postAct[:0]
	cur := xs
	last := len(m.Linears) - 1
	for i, lin := range m.Linears {
		t.inputs = append(t.inputs, cur)
		var pre []float64
		if i == 0 && input {
			t.nz.index(cur, rows, lin.In)
			pre = lin.forwardInput(&t.nz, a)
		} else {
			pre = lin.ForwardBatch(cur, rows, a)
		}
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
}

// BackwardBatch propagates the rows×Out gradient matrix through the taped
// forward pass, accumulating parameter gradients, and returns the rows×In
// gradient with respect to the inputs — nil for a RecordInput tape, whose
// input is data.
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
		if i == 0 && t.input {
			m.Linears[0].backwardInput(&t.nz, grad)
			return nil
		}
		grad = m.Linears[i].BackwardBatch(t.inputs[i], grad, t.rows, a)
	}
	return grad
}

// sparseRows indexes the non-zero entries of a row-major matrix, row by row
// in ascending column order (CSR): row r's entries are
// col/val[start[r]:start[r+1]]. Its slices are reused across index calls.
type sparseRows struct {
	start []int
	col   []int
	val   []float64
}

// index rebuilds the index over the rows×in matrix xs.
func (s *sparseRows) index(xs []float64, rows, in int) {
	if len(xs) != rows*in {
		panic("nn: sparseRows.index size mismatch")
	}
	s.start, s.col, s.val = append(s.start[:0], 0), s.col[:0], s.val[:0]
	for r := 0; r < rows; r++ {
		for c, v := range xs[r*in : (r+1)*in] {
			if v != 0 {
				s.col = append(s.col, c)
				s.val = append(s.val, v)
			}
		}
		s.start = append(s.start, len(s.col))
	}
}

// row returns row r's non-zero columns and their values.
func (s *sparseRows) row(r int) (col []int, val []float64) {
	lo, hi := s.start[r], s.start[r+1]
	return s.col[lo:hi], s.val[lo:hi]
}

// forwardInput is ForwardBatch over the indexed non-zeros of the input rows.
func (l *Linear) forwardInput(nz *sparseRows, a *Arena[float64]) []float64 {
	rows := len(nz.start) - 1
	ys := a.Alloc(rows * l.Out)
	for r := 0; r < rows; r++ {
		col, val := nz.row(r)
		y := ys[r*l.Out : (r+1)*l.Out]
		for o := range y {
			sum := l.B.Value[o]
			w := l.W.Value[o*l.In : (o+1)*l.In]
			for k, c := range col {
				sum += w[c] * val[k]
			}
			y[o] = sum
		}
	}
	return ys
}

// backwardInput is the parameter-gradient half of BackwardBatch over the
// indexed non-zeros of the input rows; rows accumulate in row order.
func (l *Linear) backwardInput(nz *sparseRows, gradOut []float64) {
	rows := len(nz.start) - 1
	if len(gradOut) != rows*l.Out {
		panic("nn: Linear.backwardInput size mismatch")
	}
	for r := 0; r < rows; r++ {
		col, val := nz.row(r)
		for o, g := range gradOut[r*l.Out : (r+1)*l.Out] {
			l.B.Grad[o] += g
			gradRow := l.W.Grad[o*l.In : (o+1)*l.In]
			for k, c := range col {
				gradRow[c] += g * val[k]
			}
		}
	}
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

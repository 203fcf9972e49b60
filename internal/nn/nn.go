// Package nn is a small, dependency-free neural-network library providing
// exactly the primitives Neo's value network needs: fully connected layers,
// leaky rectified linear units, layer normalization, an L2 loss and the Adam
// optimizer, all with explicit forward/backward passes.
//
// Two passes share the layer types: f32.go holds the float32 kernels plan
// search scores with; batch.go and train.go hold the float64 training tape,
// its forward and its backward pass, and f64.go the AVX2 kernels that run
// the tape's and the optimizer's hot loops bit-identically to their Go
// loops. The per-sample float64 reference both are parity-tested against
// lives in internal/reftest, which only tests import. Training is not a side
// show: a retraining round is 60–70 % of a learning cycle (the rest is
// planning and execution), so the tape and the optimizer step are written to
// do only the work that can change a weight.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Param is a trainable parameter vector with its accumulated gradient.
type Param struct {
	// Name identifies the parameter for debugging.
	Name string
	// Value holds the parameter values.
	Value []float64
	// Grad accumulates gradients between optimizer steps.
	Grad []float64
}

// Linear is a fully connected layer computing y = W·x + b.
type Linear struct {
	In, Out int
	W       *Param // Out×In, row-major
	B       *Param // Out

	// Packed, when set, is W and B transposed for the vector forward
	// kernel, which ForwardBatch then runs when VectorKernels. Whoever sets
	// it must Pack it after every change to W or B.
	Packed *PackedF64
}

// NewLinear creates a fully connected layer with Kaiming-uniform
// initialisation.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   &Param{Name: fmt.Sprintf("linear_%dx%d_w", out, in), Value: make([]float64, in*out), Grad: make([]float64, in*out)},
		B:   &Param{Name: fmt.Sprintf("linear_%dx%d_b", out, in), Value: make([]float64, out), Grad: make([]float64, out)},
	}
	bound := math.Sqrt(6.0 / float64(in))
	for i := range l.W.Value {
		l.W.Value[i] = (rng.Float64()*2 - 1) * bound
	}
	return l
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Pack refills l.Packed from W and B.
func (l *Linear) Pack() { l.Packed.Pack(l.In, l.Out, l.B.Value, l.W.Value) }

// LeakyReLU is the leaky rectified linear unit used throughout the paper's
// network (negative inputs are scaled by Alpha).
type LeakyReLU struct {
	Alpha float64
}

// NewLeakyReLU returns a leaky ReLU with the conventional slope of 0.01.
func NewLeakyReLU() *LeakyReLU { return &LeakyReLU{Alpha: 0.01} }

// LayerNorm normalises its input to zero mean and unit variance and applies a
// learned affine transform, as in Ba et al. (used by the paper to stabilise
// training).
type LayerNorm struct {
	Dim   int
	Gamma *Param
	Beta  *Param
	Eps   float64
}

// NewLayerNorm creates a layer-normalisation layer of the given width.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Gamma: &Param{Name: fmt.Sprintf("layernorm_%d_gamma", dim), Value: make([]float64, dim), Grad: make([]float64, dim)},
		Beta:  &Param{Name: fmt.Sprintf("layernorm_%d_beta", dim), Value: make([]float64, dim), Grad: make([]float64, dim)},
		Eps:   1e-5,
	}
	for i := range ln.Gamma.Value {
		ln.Gamma.Value[i] = 1
	}
	return ln
}

// Params returns the layer's trainable parameters.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

func meanStd(x []float64, eps float64) (float64, float64) {
	if len(x) == 0 {
		return 0, 1
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	variance := 0.0
	for _, v := range x {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(x))
	return mean, math.Sqrt(variance + eps)
}

// L2Loss returns the squared-error loss 0.5·(pred−target)² and its gradient
// with respect to pred. (The 0.5 factor keeps the gradient simply
// pred−target; the paper's L2 objective is minimised by the same optimum.)
func L2Loss(pred, target float64) (loss, grad float64) {
	d := pred - target
	return 0.5 * d * d, d
}

// Adam implements the Adam optimizer (Kingma & Ba), used by the paper for
// network training.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
	m    map[*Param][]float64
	v    map[*Param][]float64

	// live lists the parameters declared with TrackColumns.
	live []*liveColumns

	// spans is StepShards' task list, rebuilt (storage reused) every step.
	spans []stepSpan
}

// liveColumns is the ascending, ever-growing set of columns of a tracked
// rows×in weight matrix that have ever been fed a non-zero input, and the
// runs of them StepShards walks in every row.
type liveColumns struct {
	p     *Param
	in    int
	cols  []bool   // by column: ever live
	runs  [][2]int // [lo, hi) column runs covering every live column
	stale bool     // cols changed since runs was built
}

// liveRunGap is the longest stretch of dead columns a run spans rather than
// split at: one cache line of float64s. Walking a dead element is a no-op
// (see updateSpan), so merging costs only the read.
const liveRunGap = 8

// build rebuilds runs from cols if they changed.
func (lc *liveColumns) build() {
	if !lc.stale {
		return
	}
	lc.stale = false
	lc.runs = lc.runs[:0]
	for c, live := range lc.cols {
		if !live {
			continue
		}
		if n := len(lc.runs); n > 0 && c-lc.runs[n-1][1] <= liveRunGap {
			lc.runs[n-1][1] = c + 1
		} else {
			lc.runs = append(lc.runs, [2]int{c, c + 1})
		}
	}
}

// TrackColumns declares p a weight matrix of rows of width in whose input is
// data (MLP.RecordInput): an element can only get a gradient once its
// column has held a non-zero input, and MarkColumns must report every such
// column before the step that sees it. StepShards then walks only the
// columns ever marked; an element outside them has zero gradient and zero
// moments, so skipping it changes nothing. With a non-zero WeightDecay every
// element moves and the full walk is kept.
func (a *Adam) TrackColumns(p *Param, in int) {
	if len(p.Value)%in != 0 {
		panic("nn: TrackColumns width does not divide the parameter")
	}
	lc := &liveColumns{p: p, in: in, cols: make([]bool, in)}
	a.live = append(a.live, lc)
	a.relive(lc)
}

// MarkColumns adds cols to the live columns of p, which must have been
// declared with TrackColumns. It must not run concurrently with StepShards.
func (a *Adam) MarkColumns(p *Param, cols []int) {
	lc := a.tracked(p)
	if lc == nil {
		panic("nn: MarkColumns on an untracked parameter")
	}
	for _, c := range cols {
		if !lc.cols[c] {
			lc.cols[c] = true
			lc.stale = true
		}
	}
}

func (a *Adam) tracked(p *Param) *liveColumns {
	for _, lc := range a.live {
		if lc.p == p {
			return lc
		}
	}
	return nil
}

// relive resets lc's live columns to those holding a non-zero moment: after
// a restore, every element that can move again is in them.
func (a *Adam) relive(lc *liveColumns) {
	clear(lc.cols)
	lc.stale = true
	m, v := a.m[lc.p], a.v[lc.p]
	for i := range m {
		if m[i] != 0 || v[i] != 0 {
			lc.cols[i%lc.in] = true
		}
	}
}

// NewAdam creates an Adam optimizer with the given learning rate and default
// moment coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64)}
}

// CopyState makes a continue src's trajectory from where it stands: it takes
// the step counter and deep copies of both moment vectors, re-keyed from
// srcParams to the aligned params (same order, same shapes).
func (a *Adam) CopyState(src *Adam, srcParams, params []*Param) {
	a.step = src.step
	for i, p := range srcParams {
		if m, ok := src.m[p]; ok {
			a.m[params[i]] = slices.Clone(m)
		}
		if v, ok := src.v[p]; ok {
			a.v[params[i]] = slices.Clone(v)
		}
	}
	for _, lc := range a.live {
		a.relive(lc)
	}
}

// StepShards task covers: small enough that a span's gradient, moments and
// values stay in L1 across the reduce and update loops, large enough that
// claiming a span costs nothing beside updating it.
const stepSpanLen = 2048

// stepSpan is one StepShards task: elements lo..hi of parameter p, or, when
// live is set, the live runs of the whole rows lo..hi covers.
type stepSpan struct {
	p, lo, hi int
	live      *liveColumns
}

// StepShards applies one update to every parameter using its accumulated
// gradient scaled by 1/batchSize, and clears the gradients. shards lists
// each data-parallel gradient worker's shadow parameters (aligned with
// params, see ShadowGrad; nil when there are none), and an element's
// gradient is its live gradient plus every shard's in shard order.
// Reduction, update and clearing of all gradient buffers happen in one pass
// over fixed element spans, shared out over the given number of goroutines;
// elements are independent of each other, so the result does not depend on
// that number. A parameter declared with TrackColumns is walked over its live
// columns only.
func (a *Adam) StepShards(params []*Param, shards [][]*Param, batchSize, workers int) {
	if batchSize < 1 {
		batchSize = 1
	}
	a.step++
	c := a.consts(1.0/float64(batchSize),
		1-math.Pow(a.Beta1, float64(a.step)),
		1-math.Pow(a.Beta2, float64(a.step)))
	a.spans = a.spans[:0]
	for pi, p := range params {
		if _, ok := a.m[p]; !ok {
			a.m[p] = make([]float64, len(p.Value))
		}
		if _, ok := a.v[p]; !ok {
			a.v[p] = make([]float64, len(p.Value))
		}
		if lc := a.tracked(p); lc != nil && a.WeightDecay == 0 {
			lc.build()
			width := 0
			for _, r := range lc.runs {
				width += r[1] - r[0]
			}
			if width == 0 {
				continue
			}
			step := max(1, stepSpanLen/width) * lc.in
			for lo := 0; lo < len(p.Value); lo += step {
				a.spans = append(a.spans, stepSpan{p: pi, lo: lo, hi: min(lo+step, len(p.Value)), live: lc})
			}
			continue
		}
		for lo := 0; lo < len(p.Value); lo += stepSpanLen {
			a.spans = append(a.spans, stepSpan{p: pi, lo: lo, hi: min(lo+stepSpanLen, len(p.Value))})
		}
	}
	Parallel(workers, len(a.spans), func(i int) {
		s := a.spans[i]
		p := params[s.p]
		m, v := a.m[p], a.v[p]
		if s.live == nil {
			a.updateSpan(p, shards, s.p, m, v, s.lo, s.hi, &c)
			return
		}
		for row := s.lo; row < s.hi; row += s.live.in {
			for _, r := range s.live.runs {
				a.updateSpan(p, shards, s.p, m, v, row+r[0], row+r[1], &c)
			}
		}
	})
}

// MLP is a stack of Linear layers with leaky-ReLU activations (and optional
// layer normalisation) between them. The final layer is linear.
type MLP struct {
	Linears []*Linear
	Norms   []*LayerNorm // nil entries mean "no normalisation after layer i"
	Act     *LeakyReLU
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [64, 128,
// 64, 32] builds three Linear layers 64→128→64→32. When useNorm is true a
// LayerNorm is applied after every hidden activation.
func NewMLP(sizes []int, useNorm bool, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least an input and an output size")
	}
	m := &MLP{Act: NewLeakyReLU()}
	for i := 0; i+1 < len(sizes); i++ {
		m.Linears = append(m.Linears, NewLinear(sizes[i], sizes[i+1], rng))
		if useNorm && i+2 < len(sizes) {
			m.Norms = append(m.Norms, NewLayerNorm(sizes[i+1]))
		} else {
			m.Norms = append(m.Norms, nil)
		}
	}
	return m
}

// Params returns every layer's trainable parameters: the Linear layers'
// in order, then the norms'.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.Linears {
		out = append(out, l.Params()...)
	}
	for _, n := range m.Norms {
		if n != nil {
			out = append(out, n.Params()...)
		}
	}
	return out
}

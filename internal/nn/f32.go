// Float32 inference kernels. Training stays float64 (nn.go); the frozen
// snapshot path scores plans through the kernels in this file instead: weights
// are converted once, at snapshot-publish time, into pre-transposed panels
// that a register-blocked GEMM streams through sequentially. Three ideas carry
// the speedup:
//
//   - float32 halves the memory traffic of every weight and activation load,
//     which is what bounds the batched float64 path;
//   - weights are re-packed into padded 4-wide output panels laid out k-major
//     (for each input position, the 4 panel outputs' weights are adjacent), so
//     the inner loop walks one contiguous stream with no per-output row
//     slicing and no tail handling inside the kernel;
//   - the micro-kernel computes a 4×4 tile (4 batch rows × 4 output channels)
//     per inner-loop iteration: 16 independent accumulator chains hide FMA
//     latency and every loaded input value is reused by 4 outputs (and every
//     loaded weight by 4 rows). Under GOAMD64=v3 the compiler can keep the
//     tile in vector registers; under v1 the same loop runs as scalar SSE2.
//
// Kernels here are inference-only and never mutate weights, so they are safe
// for unsynchronised concurrent use once packed.
package nn

import "math"

// PanelF32 is the output width of a packed float32 panel: 8 float32 lanes —
// exactly one AVX ymm register, and the unit the assembly micro-kernel
// processes per fused multiply-add.
const PanelF32 = 8

// PackedF32 is a weight matrix re-packed for the tiled GEMM: outputs are
// grouped into panels of PanelF32 (padded with zero rows past Out), and
// within a panel the layout is k-major — W[panel·K·8 + k·8 + j] is the weight
// of output panel·8+j against input position k, so the inner loop's weight
// loads are one contiguous stream. K may be the concatenation of several
// logical matrices (tree convolution packs [EP;EL;ER]); because the
// concatenation is ordered, a GEMM may use only a K-prefix of every panel
// (kUsed < K) to skip trailing operands that are identically zero.
type PackedF32 struct {
	Out, K int
	Bias   []float32
	W      []float32 // ceil(Out/8) panels × K×8
}

// PackF32 packs the row-major float64 matrices mats (mats[i] is out×ks[i])
// into one padded panel matrix whose K dimension is the concatenation of the
// ks, in order.
func PackF32(out int, bias []float64, ks []int, mats ...[]float64) PackedF32 {
	k := 0
	for _, ki := range ks {
		k += ki
	}
	panels := (out + PanelF32 - 1) / PanelF32
	p := PackedF32{Out: out, K: k, Bias: make([]float32, out), W: make([]float32, panels*k*PanelF32)}
	for o, b := range bias {
		p.Bias[o] = float32(b)
	}
	kBase := 0
	for mi, m := range mats {
		ki := ks[mi]
		for o := 0; o < out; o++ {
			row := m[o*ki : (o+1)*ki]
			base := (o / PanelF32) * k * PanelF32
			j := o % PanelF32
			for kk, w := range row {
				p.W[base+(kBase+kk)*PanelF32+j] = float32(w)
			}
		}
		kBase += ki
	}
	return p
}

// Bytes returns the packed footprint in bytes.
func (p *PackedF32) Bytes() int { return 4 * (len(p.W) + len(p.Bias)) }

// Gemm computes ys = xs·Wᵀ + bias over the first kUsed positions of every
// panel: xs holds rows×kUsed values row-major, ys holds rows×Out values
// row-major. kUsed must not exceed p.K; kUsed < p.K restricts the dot
// products to a K-prefix (used by the tree convolution's leaf kernel).
// On CPUs with AVX2+FMA the panels run through the assembly micro-kernel
// (4 batch rows × 8 output lanes per step); elsewhere, through gemmScalar.
func (p *PackedF32) Gemm(xs []float32, rows, kUsed int, ys []float32) {
	if rows == 0 || kUsed == 0 {
		for r := 0; r < rows; r++ {
			copy(ys[r*p.Out:(r+1)*p.Out], p.Bias)
		}
		return
	}
	out := p.Out
	panels := (out + PanelF32 - 1) / PanelF32
	for pi := 0; pi < panels; pi++ {
		o := pi * PanelF32
		on := out - o
		if on > PanelF32 {
			on = PanelF32
		}
		if useAVX2 {
			gemmPanel8(&xs[0], &p.W[pi*p.K*PanelF32], &ys[o], &p.Bias[o],
				rows, kUsed, kUsed, out, &maskTable[on-1][0])
			continue
		}
		gemmPanelScalar(xs, p.W[pi*p.K*PanelF32:pi*p.K*PanelF32+kUsed*PanelF32],
			ys, p.Bias, rows, kUsed, out, o, on)
	}
}

// maskTable[n-1] is the vmaskmovps lane mask selecting the first n of 8
// lanes, used by the assembly kernel to guard the output tail of the last
// panel (and the matching bias load) without padding the destination.
var maskTable = func() (t [PanelF32][PanelF32]int32) {
	for n := 0; n < PanelF32; n++ {
		for j := 0; j <= n; j++ {
			t[n][j] = -1
		}
	}
	return
}()

// gemmPanelScalar is the portable kernel for one panel: 8 independent
// accumulator chains per row over the panel's contiguous weight stream. It is
// the reference the assembly kernel is parity-tested against.
func gemmPanelScalar(xs, pw, ys, bias []float32, rows, kUsed, out, o, on int) {
	for r := 0; r < rows; r++ {
		x := xs[r*kUsed : r*kUsed+kUsed]
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		for k := 0; k < len(x); k++ {
			w := pw[PanelF32*k : PanelF32*k+PanelF32]
			v := x[k]
			a0 += v * w[0]
			a1 += v * w[1]
			a2 += v * w[2]
			a3 += v * w[3]
			a4 += v * w[4]
			a5 += v * w[5]
			a6 += v * w[6]
			a7 += v * w[7]
		}
		y := ys[r*out+o : r*out+o+on]
		b := bias[o : o+on]
		acc := [PanelF32]float32{a0, a1, a2, a3, a4, a5, a6, a7}
		for j := range y {
			y[j] = acc[j] + b[j]
		}
	}
}

// LayerNormF32 is the float32 inference form of LayerNorm.
type LayerNormF32 struct {
	Dim         int
	Gamma, Beta []float32
	Eps         float32
}

// NewLayerNormF32 converts a trained LayerNorm.
func NewLayerNormF32(ln *LayerNorm) *LayerNormF32 {
	out := &LayerNormF32{Dim: ln.Dim, Gamma: make([]float32, ln.Dim), Beta: make([]float32, ln.Dim), Eps: float32(ln.Eps)}
	for i := range ln.Gamma.Value {
		out.Gamma[i] = float32(ln.Gamma.Value[i])
		out.Beta[i] = float32(ln.Beta.Value[i])
	}
	return out
}

// Bytes returns the packed footprint in bytes.
func (ln *LayerNormF32) Bytes() int { return 4 * (len(ln.Gamma) + len(ln.Beta)) }

// ForwardBatch normalises each of rows rows of xs in place-free arena storage.
func (ln *LayerNormF32) ForwardBatch(xs []float32, rows int, a *Arena[float32]) []float32 {
	ys := a.Alloc(len(xs))
	dim := ln.Dim
	for r := 0; r < rows; r++ {
		x := xs[r*dim : (r+1)*dim]
		y := ys[r*dim : (r+1)*dim]
		var mean float32
		for _, v := range x {
			mean += v
		}
		mean /= float32(dim)
		var variance float32
		for _, v := range x {
			d := v - mean
			variance += d * d
		}
		variance /= float32(dim)
		inv := 1 / float32(math.Sqrt(float64(variance+ln.Eps)))
		for i, v := range x {
			y[i] = ln.Gamma[i]*(v-mean)*inv + ln.Beta[i]
		}
	}
	return ys
}

// MLPF32 is the float32 packed-panel form of an MLP, built once from trained
// float64 weights. Immutable after construction; safe for concurrent use.
type MLPF32 struct {
	Lins  []PackedF32
	Norms []*LayerNormF32 // nil entries mirror MLP.Norms
	Alpha float32
}

// NewMLPF32 packs a trained MLP for float32 inference.
func NewMLPF32(m *MLP) *MLPF32 {
	out := &MLPF32{Alpha: float32(m.Act.Alpha)}
	for i, lin := range m.Linears {
		out.Lins = append(out.Lins, PackF32(lin.Out, lin.B.Value, []int{lin.In}, lin.W.Value))
		if m.Norms[i] != nil {
			out.Norms = append(out.Norms, NewLayerNormF32(m.Norms[i]))
		} else {
			out.Norms = append(out.Norms, nil)
		}
	}
	return out
}

// Bytes returns the packed footprint in bytes.
func (m *MLPF32) Bytes() int {
	total := 0
	for i := range m.Lins {
		total += m.Lins[i].Bytes()
		if m.Norms[i] != nil {
			total += m.Norms[i].Bytes()
		}
	}
	return total
}

// ForwardBatch runs the packed MLP over rows input rows (row-major in xs).
func (m *MLPF32) ForwardBatch(xs []float32, rows int, a *Arena[float32]) []float32 {
	cur := xs
	last := len(m.Lins) - 1
	for i := range m.Lins {
		lin := &m.Lins[i]
		ys := a.Alloc(rows * lin.Out)
		lin.Gemm(cur, rows, lin.K, ys)
		if i == last {
			cur = ys
			continue
		}
		LeakyInPlace(ys, m.Alpha)
		if m.Norms[i] != nil {
			cur = m.Norms[i].ForwardBatch(ys, rows, a)
		} else {
			cur = ys
		}
	}
	return cur
}

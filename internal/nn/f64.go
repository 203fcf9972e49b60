// Float64 kernel layer: the training tape's dense forward, its rank-4
// weight-gradient backward and the optimizer's reduce+update pass, each as
// an AVX2 assembly kernel (f64_amd64.s) beside the portable Go loop it must
// equal bit for bit. The kernels vectorise across independent elements only
// and never fuse a multiply-add, so which path runs changes the time taken,
// never a weight, a moment or a loss. useAVX2 picks the path;
// SetScalarKernelsForTest forces the Go loops in-process.
package nn

import "math"

// VectorKernels reports whether the assembly kernels run on this host (and
// have not been switched off by SetScalarKernelsForTest).
func VectorKernels() bool { return useAVX2 }

// maskTab holds 16 set lanes followed by 16 clear ones: the 4-lane mask
// whose first r lanes are set starts at maskTab[16-r]. The kernels take
// &maskTab[16] and step back from it.
var maskTab = [32]int64{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}

// panelBlock is the forward kernel's output blocking: a panel's rows are
// padded to a multiple of it, so the kernel's weight and bias loads never
// leave the panel.
const panelBlock = 16

// PackedF64 is a layer's weights transposed for the vector forward kernel:
// per bank, In rows of Out weights (padded with zeros to a multiple of
// panelBlock), so four consecutive outputs load as one vector. It is a copy:
// whoever reads it must Pack it again after every change to the weights
// (valuenet packs once per training step, before its shards start).
type PackedF64 struct {
	in, out, pad int
	w            []float64 // bank-major: w[(b·in + i)·pad + o] = bank b's W[o][i]
	bias         []float64 // pad entries, zero past out
}

// Pack copies bias (out entries) and each bank (out×in, row-major) into p,
// transposed. The storage is reused while the shape stays the same.
func (p *PackedF64) Pack(in, out int, bias []float64, banks ...[]float64) {
	pad := (out + panelBlock - 1) / panelBlock * panelBlock
	if p.in != in || p.out != out || len(p.w) != len(banks)*in*pad {
		p.in, p.out, p.pad = in, out, pad
		p.w = make([]float64, len(banks)*in*pad)
		p.bias = make([]float64, pad)
	}
	copy(p.bias, bias[:out])
	for b, w := range banks {
		w = w[:out*in]
		for i := 0; i < in; i++ {
			row := p.w[(b*in+i)*pad:][:out]
			for o := range row {
				row[o] = w[o*in+i]
			}
		}
	}
}

// Forward sets y[o] = bias[o] + Σ_i W₀[o][i]·x[i] from the first bank, the
// additions in ascending i as the reference Linear.Forward
// (internal/reftest) makes them. Only for
// VectorKernels.
func (p *PackedF64) Forward(y, x []float64) {
	y, x = y[:p.out], x[:p.in]
	panel1(&p.w[0], &p.bias[0], &x[0], &y[0], p.in, p.pad, p.out, &maskTab[16])
}

// Forward3 sets y[o] = bias[o] + Σ_i (W₀[o][i]·x0[i] + W₁[o][i]·x1[i] +
// W₂[o][i]·x2[i]) from three banks, adding the three products of each i in
// turn — the order of the tree convolution's Go loops. Only for
// VectorKernels.
func (p *PackedF64) Forward3(y, x0, x1, x2 []float64) {
	y, x0, x1, x2 = y[:p.out], x0[:p.in], x1[:p.in], x2[:p.in]
	_ = p.w[3*p.in*p.pad-1]
	panel3(&p.w[0], &p.bias[0], &x0[0], &x1[0], &x2[0], &y[0], p.in, p.pad, p.out, &maskTab[16])
}

// Backward4 backpropagates output channels o..o+3 of the in-wide weight
// rows of w, whose gradients are g, for the input row x whose gradient row
// is gin: each weight-gradient row gains g_k·x, and each element of gin
// gains g_0·w_0, g_1·w_1, g_2·w_2, g_3·w_3 in that order — the order the
// one-channel-at-a-time loop adds them in.
func Backward4(w *Param, in, o int, g, x, gin []float64) {
	val := w.Value[o*in : (o+4)*in]
	grad := w.Grad[o*in : (o+4)*in]
	g, x, gin = g[:4], x[:in], gin[:in]
	if useAVX2 {
		backward4(&val[0], &grad[0], &g[0], &x[0], &gin[0], in, &maskTab[16])
		return
	}
	// Each input is loaded once for the four weight-gradient rows, and each
	// element of gin stays in a register while the four channels add to it.
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	w0, w1, w2, w3 := val[:in], val[in:][:in], val[2*in:][:in], val[3*in:][:in]
	wg0, wg1, wg2, wg3 := grad[:in], grad[in:][:in], grad[2*in:][:in], grad[3*in:][:in]
	for i := 0; i < in; i++ {
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

// stepConsts holds one optimizer step's constants, each repeated over the
// four lanes the adam kernel loads at once: the gradient scale, weight decay,
// β1, 1−β1, β2, 1−β2, learning rate, ε and the bias corrections 1−β1ᵗ and
// 1−β2ᵗ.
type stepConsts [10][4]float64

// consts builds the step's constants from its gradient scale and bias
// corrections.
func (a *Adam) consts(scale, bc1, bc2 float64) (c stepConsts) {
	for k, x := range [10]float64{scale, a.WeightDecay, a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, a.LR, a.Eps, bc1, bc2} {
		c[k] = [4]float64{x, x, x, x}
	}
	return c
}

// updateSpan reduces, updates and clears elements lo..hi of p, which is
// parameter pi of every shard, with moments m and v: every shard's gradient
// adds onto p's in shard order, then each element takes one Adam update.
// An element whose gradient and both moments are zero is left alone: its
// update would store the same zero moments and subtract LR·0/(0+Eps) = 0
// from the value.
func (a *Adam) updateSpan(p *Param, shards [][]*Param, pi int, m, v []float64, lo, hi int, c *stepConsts) {
	grad := p.Grad[lo:hi]
	value := p.Value[lo:hi]
	m, v = m[lo:hi], v[lo:hi]
	if useAVX2 && len(value) > 0 {
		for _, sh := range shards {
			sg := sh[pi].Grad[lo:hi]
			addClear(&grad[0], &sg[0], len(sg), &maskTab[16])
		}
		adam(&value[0], &grad[0], &m[0], &v[0], len(value), (*[10][4]float64)(c), &maskTab[16])
		return
	}
	scale, bc1, bc2 := c[0][0], c[8][0], c[9][0]
	for _, sh := range shards {
		sg := sh[pi].Grad[lo:hi]
		for j, g := range sg {
			grad[j] += g
			sg[j] = 0
		}
	}
	for i := range value {
		g := grad[i]*scale + a.WeightDecay*value[i]
		grad[i] = 0
		if g == 0 && m[i] == 0 && v[i] == 0 {
			continue
		}
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		value[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
	}
}

package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// onKernels runs fn on the Go loops (scalar) or the vector kernels.
func onKernels(scalar bool, fn func()) {
	defer SetScalarKernelsForTest(SetScalarKernelsForTest(scalar))
	fn()
}

// needVector skips a kernel-parity test on a host without the vector
// kernels, where both sides would run the Go loops.
func needVector(t *testing.T) {
	t.Helper()
	if !VectorKernels() {
		t.Skip("no AVX2: only the Go loops exist on this host")
	}
}

// signedValues draws n values of which about a quarter are +0 or −0.
func signedValues(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(8) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = math.Copysign(0, -1)
		default:
			xs[i] = rng.NormFloat64()
		}
	}
	return xs
}

// requireSameBits fails unless got and want are bit for bit equal, so even
// the sign of a zero must agree.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, Go loop %v", what, i, got[i], want[i])
		}
	}
}

const canary = 12345.0

// TestPackedForwardMatchesGoLoop: for every width 1–37 in and out, the
// panel kernel's Linear.ForwardBatch is bit-identical to the Go loop, over
// inputs and weights holding ±0, and never writes past a row.
func TestPackedForwardMatchesGoLoop(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(3))
	const rows = 3
	for in := 1; in <= 37; in++ {
		for out := 1; out <= 37; out++ {
			lin := NewLinear(in, out, rng)
			copy(lin.W.Value, signedValues(rng, in*out))
			copy(lin.B.Value, signedValues(rng, out))
			xs := signedValues(rng, rows*in)
			var a Arena[float64]
			var want, got []float64
			onKernels(true, func() { want = lin.ForwardBatch(xs, rows, &a) })
			lin.Packed = new(PackedF64)
			lin.Pack()
			onKernels(false, func() { got = lin.ForwardBatch(xs, rows, &a) })
			requireSameBits(t, "ForwardBatch", got, want)

			y := make([]float64, out+8)
			for i := range y {
				y[i] = canary
			}
			lin.Packed.Forward(y[:out], xs[:in])
			requireSameBits(t, "Forward", y[:out], want[:out])
			for i := out; i < len(y); i++ {
				if y[i] != canary {
					t.Fatalf("in=%d out=%d: kernel wrote past the row at %d", in, out, i)
				}
			}
		}
	}
}

// TestBackward4MatchesGoLoop: for every width 1–37, the rank-4 backward
// kernel leaves the four weight-gradient rows and the input gradient
// bit-identical to the Go loop — channel gradients of ±0 included — and
// touches neither the neighbouring weight rows nor anything past the row.
func TestBackward4MatchesGoLoop(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(4))
	for in := 1; in <= 37; in++ {
		for trial := 0; trial < 4; trial++ {
			// Rows 1..4 of a 6-row matrix; rows 0 and 5 must stay as they are.
			w := &Param{Value: signedValues(rng, 6*in), Grad: signedValues(rng, 6*in)}
			g := signedValues(rng, 4)
			x := signedValues(rng, in)
			gin := append(signedValues(rng, in), canary, canary, canary)
			run := func(scalar bool) (grad, gi []float64) {
				p := &Param{Value: w.Value, Grad: slices.Clone(w.Grad)}
				gi = slices.Clone(gin)
				onKernels(scalar, func() { Backward4(p, in, 1, g, x, gi[:in]) })
				return p.Grad, gi
			}
			wantGrad, wantGin := run(true)
			gotGrad, gotGin := run(false)
			requireSameBits(t, "weight gradient", gotGrad, wantGrad)
			requireSameBits(t, "input gradient", gotGin, wantGin)
			requireSameBits(t, "untouched weight gradient rows", append(slices.Clone(gotGrad[:in]), gotGrad[5*in:]...),
				append(slices.Clone(w.Grad[:in]), w.Grad[5*in:]...))
		}
	}
}

// TestLinearBackwardBatchMatchesGoLoop: Linear.BackwardBatch, which runs
// four outputs at a time through Backward4 and the rest one at a time, is
// bit-identical on both kernel sets for outputs 1–9 over inputs 1–37.
func TestLinearBackwardBatchMatchesGoLoop(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(5))
	const rows = 3
	for in := 1; in <= 37; in++ {
		for out := 1; out <= 9; out++ {
			lin := NewLinear(in, out, rng)
			copy(lin.W.Value, signedValues(rng, in*out))
			xs := signedValues(rng, rows*in)
			gout := signedValues(rng, rows*out)
			run := func(scalar bool) (wg, bg, gin []float64) {
				l := lin.ShadowGrad()
				var a Arena[float64]
				onKernels(scalar, func() { gin = l.BackwardBatch(xs, gout, rows, &a) })
				return l.W.Grad, l.B.Grad, gin
			}
			wantW, wantB, wantIn := run(true)
			gotW, gotB, gotIn := run(false)
			requireSameBits(t, "weight gradient", gotW, wantW)
			requireSameBits(t, "bias gradient", gotB, wantB)
			requireSameBits(t, "input gradient", gotIn, wantIn)
		}
	}
}

// TestAdamKernelMatchesGoLoop: three StepShards steps over parameters of
// every width 1–37 leave values and both moments bit-identical on both
// kernel sets and clear every gradient buffer, for 1, 2 and 3 shards, with
// and without weight decay — elements whose gradient is zero in every shard
// while their moments are zero (left untouched), or non-zero (updated),
// and values of ±0 among them.
func TestAdamKernelMatchesGoLoop(t *testing.T) {
	needVector(t)
	for _, decay := range []float64{0, 1e-3} {
		for shards := 1; shards <= 3; shards++ {
			rng := rand.New(rand.NewSource(int64(10*shards) + int64(decay*1e3)))
			var params []*Param
			for n := 1; n <= 37; n++ {
				params = append(params, &Param{Value: signedValues(rng, n), Grad: make([]float64, n)})
			}
			// Every step, an element's gradient is zero in every shard with
			// probability 1/2, and ±0 or random otherwise.
			var grads [][][][]float64 // step, shard (0 = live), param
			for step := 0; step < 3; step++ {
				var perShard [][][]float64
				for s := 0; s <= shards; s++ {
					var perParam [][]float64
					for _, p := range params {
						perParam = append(perParam, signedValues(rng, len(p.Value)))
					}
					perShard = append(perShard, perParam)
				}
				for pi, p := range params {
					for i := range p.Value {
						if rng.Intn(2) == 0 {
							for s := range perShard {
								perShard[s][pi][i] = 0
							}
						}
					}
				}
				grads = append(grads, perShard)
			}
			run := func(scalar bool) (*Adam, []*Param) {
				ps := make([]*Param, len(params))
				for i, p := range params {
					ps[i] = &Param{Value: slices.Clone(p.Value), Grad: make([]float64, len(p.Grad))}
				}
				sh := make([][]*Param, shards)
				for s := range sh {
					for _, p := range ps {
						sh[s] = append(sh[s], p.ShadowGrad())
					}
				}
				opt := NewAdam(3e-2)
				opt.WeightDecay = decay
				onKernels(scalar, func() {
					for _, g := range grads {
						for pi, p := range ps {
							copy(p.Grad, g[0][pi])
							for s := range sh {
								copy(sh[s][pi].Grad, g[s+1][pi])
							}
						}
						opt.StepShards(ps, sh, 7, 2)
						for pi, p := range ps {
							for s := range sh {
								if slices.ContainsFunc(sh[s][pi].Grad, func(v float64) bool { return v != 0 }) {
									t.Fatalf("scalar=%v: shard %d gradient of param %d not cleared", scalar, s, pi)
								}
							}
							if slices.ContainsFunc(p.Grad, func(v float64) bool { return v != 0 }) {
								t.Fatalf("scalar=%v: gradient of param %d not cleared", scalar, pi)
							}
						}
					}
				})
				return opt, ps
			}
			wantOpt, want := run(true)
			gotOpt, got := run(false)
			for pi := range params {
				requireSameBits(t, "value", got[pi].Value, want[pi].Value)
				requireSameBits(t, "first moment", gotOpt.m[got[pi]], wantOpt.m[want[pi]])
				requireSameBits(t, "second moment", gotOpt.v[got[pi]], wantOpt.v[want[pi]])
			}
		}
	}
}

// BenchmarkAdamStepShards times one optimizer step at the measured
// retraining shape: the DefaultConfig network on the IMDB query encoding
// (62 129 parameters, the query tower's 64×761 input layer tracked with 318
// live columns) reducing 2 shards.
func BenchmarkAdamStepShards(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const queryDim, live = 761, 318
	var params []*Param
	layer := func(in, out int) {
		params = append(params,
			&Param{Value: randRows(rng, out, in), Grad: make([]float64, out*in)},
			&Param{Value: randRows(rng, 1, out), Grad: make([]float64, out)})
	}
	norm := func(dim int) {
		params = append(params,
			&Param{Value: randRows(rng, 1, dim), Grad: make([]float64, dim)},
			&Param{Value: randRows(rng, 1, dim), Grad: make([]float64, dim)})
	}
	// Query tower 761→64→32, tree convolution 55→32→32→16 (three banks per
	// layer), head 16→32→16→1, a layer norm after every hidden activation of
	// the two MLPs.
	layer(queryDim, 64)
	layer(64, 32)
	for _, c := range [][2]int{{55, 32}, {32, 32}, {32, 16}} {
		for range 3 {
			params = append(params, &Param{Value: randRows(rng, c[1], c[0]), Grad: make([]float64, c[0]*c[1])})
		}
		params = append(params, &Param{Value: randRows(rng, 1, c[1]), Grad: make([]float64, c[1])})
	}
	layer(16, 32)
	layer(32, 16)
	layer(16, 1)
	norm(64)
	norm(32)
	norm(16)
	total := 0
	for _, p := range params {
		total += len(p.Value)
	}
	if total != 62129 {
		b.Fatalf("%d parameters, want 62129", total)
	}
	opt := NewAdam(1e-3)
	opt.TrackColumns(params[0], queryDim)
	cols := rng.Perm(queryDim)[:live]
	opt.MarkColumns(params[0], cols)
	shards := make([][]*Param, 2)
	for s := range shards {
		for _, p := range params {
			shards[s] = append(shards[s], p.ShadowGrad())
		}
	}
	fill := func() {
		for _, ps := range append([][]*Param{params}, shards...) {
			for pi, p := range ps {
				if pi == 0 {
					for r := 0; r < 64; r++ {
						for _, c := range cols {
							p.Grad[r*queryDim+c] = rng.NormFloat64()
						}
					}
					continue
				}
				for i := range p.Grad {
					p.Grad[i] = rng.NormFloat64()
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		opt.StepShards(params, shards, 16, 2)
	}
}

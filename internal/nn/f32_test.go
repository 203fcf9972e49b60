package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// relErr32 returns |a-b| / max(1, |b|).
func relErr32(a float32, b float64) float64 {
	d := math.Abs(float64(a) - b)
	m := math.Abs(b)
	if m < 1 {
		m = 1
	}
	return d / m
}

func toF32(xs []float64) []float32 {
	ys := make([]float32, len(xs))
	for i, v := range xs {
		ys[i] = float32(v)
	}
	return ys
}

// eachKernel runs fn under both the AVX2 assembly kernel (when the host
// supports it) and the portable scalar kernel, so every parity test covers
// both code paths.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer SetScalarKernelsForTest(SetScalarKernelsForTest(false))
	t.Run("native", fn)
	SetScalarKernelsForTest(true)
	t.Run("scalar", fn)
}

// TestPackedF32GemmParity checks the tiled f32 GEMM against the float64
// Linear reference over shapes that exercise every tile tail: non-multiple-
// of-tile rows and outputs, batch=1, and zero-row batches.
func TestPackedF32GemmParity(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13} {
			for _, out := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17} {
				for _, in := range []int{1, 3, 8, 33} {
					lin := NewLinear(in, out, rng)
					p := PackF32(out, lin.B.Value, []int{in}, lin.W.Value)
					xs := randRows(rng, rows, in)
					// Canary padding detects any store past rows*out.
					ys := make([]float32, rows*out+8)
					for i := range ys {
						ys[i] = 12345
					}
					p.Gemm(toF32(xs), rows, in, ys)
					for i := rows * out; i < len(ys); i++ {
						if ys[i] != 12345 {
							t.Fatalf("rows=%d out=%d in=%d: kernel wrote past end at %d", rows, out, in, i)
						}
					}
					for r := 0; r < rows; r++ {
						want := refLinear(lin).Forward(xs[r*in : (r+1)*in])
						for o, w := range want {
							if e := relErr32(ys[r*out+o], w); e > 1e-5 {
								t.Fatalf("rows=%d out=%d in=%d: y[%d][%d]=%v want %v (rel err %g)",
									rows, out, in, r, o, ys[r*out+o], w, e)
							}
						}
					}
				}
			}
		}
	})
}

// TestPackedF32GemmKPrefix checks that restricting the GEMM to a K-prefix of
// a concatenated panel matches a GEMM over the first matrix alone — the
// property the tree convolution's leaf kernel relies on.
func TestPackedF32GemmKPrefix(t *testing.T) {
	eachKernel(t, testPackedF32GemmKPrefix)
}

func testPackedF32GemmKPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const out, in = 6, 9
	ep := randRows(rng, out, in)
	el := randRows(rng, out, in)
	er := randRows(rng, out, in)
	bias := randRows(rng, 1, out)
	full := PackF32(out, bias, []int{in, in, in}, ep, el, er)
	solo := PackF32(out, bias, []int{in}, ep)
	xs := toF32(randRows(rng, 5, in))
	got := make([]float32, 5*out)
	want := make([]float32, 5*out)
	full.Gemm(xs, 5, in, got)
	solo.Gemm(xs, 5, in, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("K-prefix GEMM diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestMLPF32Parity checks the packed float32 MLP against the per-sample
// float64 reference within 1e-5 relative, including layer norm.
func TestMLPF32Parity(t *testing.T) {
	eachKernel(t, testMLPF32Parity)
}

func testMLPF32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, useNorm := range []bool{false, true} {
		m := NewMLP([]int{13, 32, 17, 1}, useNorm, rng)
		m32 := NewMLPF32(m)
		var a Arena[float32]
		for _, rows := range []int{0, 1, 3, 8} {
			xs := randRows(rng, rows, 13)
			a.Reset()
			got := m32.ForwardBatch(toF32(xs), rows, &a)
			if len(got) != rows {
				t.Fatalf("norm=%v rows=%d: %d outputs", useNorm, rows, len(got))
			}
			for r := 0; r < rows; r++ {
				want := refMLP(m).Forward(xs[r*13 : (r+1)*13]).Output()[0]
				if e := relErr32(got[r], want); e > 1e-5 {
					t.Fatalf("norm=%v rows=%d: out[%d]=%v want %v (rel err %g)", useNorm, rows, r, got[r], want, e)
				}
			}
		}
	}
}

func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const rows, out, in = 256, 32, 96
	lin := NewLinear(in, out, rng)
	xs := randRows(rng, rows, in)
	xs32 := toF32(xs)
	b.Run("f64-batch", func(b *testing.B) {
		var a Arena[float64]
		for i := 0; i < b.N; i++ {
			a.Reset()
			lin.ForwardBatch(xs, rows, &a)
		}
	})
	b.Run("f32-panels", func(b *testing.B) {
		p := PackF32(out, lin.B.Value, []int{in}, lin.W.Value)
		ys := make([]float32, rows*out)
		for i := 0; i < b.N; i++ {
			p.Gemm(xs32, rows, in, ys)
		}
	})
}

// special32 draws n values, most of them normal; at the given share a value
// is instead +0, −0, +Inf, −Inf, a NaN of either sign or a repeat of an
// earlier value.
func special32(rng *rand.Rand, n int, share float64) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64())
		if rng.Float64() >= share {
			continue
		}
		switch rng.Intn(7) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = float32(math.Copysign(0, -1))
		case 2:
			xs[i] = float32(math.Inf(1))
		case 3:
			xs[i] = float32(math.Inf(-1))
		case 4:
			xs[i] = math.Float32frombits(0x7fc00000)
		case 5:
			xs[i] = math.Float32frombits(0xffc00001)
		case 6:
			xs[i] = xs[rng.Intn(i+1)]
		}
	}
	return xs
}

// requireSameBits32 fails unless got and want are bit for bit equal, so the
// sign of a zero must agree, except that any NaN equals any NaN: Go leaves a
// NaN's payload unspecified, and which operand of a commutative add the
// compiled Go loop propagates changes with the build (under -race it does).
func requireSameBits32(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), Go loop %v (%#x)", what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// requireCanary32 fails unless every value of tail is still the canary.
func requireCanary32(t *testing.T, what string, tail []float32) {
	t.Helper()
	for i, v := range tail {
		if v != canary {
			t.Fatalf("%s wrote %v past its end, at +%d", what, v, i)
		}
	}
}

// TestLayerNormF32MatchesGoLoop: for every width 1–37 and row count 1–17,
// LayerNormF32.ForwardBatch on the vector kernel is bit-identical to the Go
// loop, on rows holding ±0, ±Inf and NaNs — a row with +Inf and −Inf makes
// a NaN of its own — and on gammas and betas holding them too, and writes
// nothing past its rows.
func TestLayerNormF32MatchesGoLoop(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(21))
	for dim := 1; dim <= 37; dim++ {
		for rows := 1; rows <= 17; rows++ {
			ln := &LayerNormF32{Dim: dim, Gamma: special32(rng, dim, 0.1), Beta: special32(rng, dim, 0.1), Eps: 1e-5}
			xs := make([]float32, 0, rows*dim)
			for r := 0; r < rows; r++ {
				// Half the rows are clean, so the statistics stay finite there.
				share := 0.0
				if rng.Intn(2) == 0 {
					share = 2.5 / float64(dim)
				}
				xs = append(xs, special32(rng, dim, share)...)
			}
			var want, got []float32
			onKernels(true, func() { want = ln.ForwardBatch(xs, rows, &Arena[float32]{}) })
			a := Arena[float32]{buf: make([]float32, rows*dim+8)}
			for i := range a.buf {
				a.buf[i] = canary
			}
			onKernels(false, func() { got = ln.ForwardBatch(xs, rows, &a) })
			what := fmt.Sprintf("dim %d rows %d: ForwardBatch", dim, rows)
			requireSameBits32(t, what, got, want)
			requireCanary32(t, what, a.buf[rows*dim:])
		}
	}
}

// TestLeakyF32MatchesGoLoop: LeakyInPlace over float32 on the vector kernel
// is bit-identical to the Go loop — NaN and −0 pass through unchanged —
// for every width 1–37 times row count 1–17 of values, and
// writes nothing past them.
func TestLeakyF32MatchesGoLoop(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(22))
	for width := 1; width <= 37; width++ {
		for rows := 1; rows <= 17; rows++ {
			n := width * rows
			want := special32(rng, n, 0.3)
			got := append(slices.Clone(want), canary, canary, canary, canary, canary, canary, canary, canary)
			onKernels(true, func() { LeakyInPlace(want, 0.01) })
			onKernels(false, func() { LeakyInPlace(got[:n], 0.01) })
			what := fmt.Sprintf("%d values: LeakyInPlace", n)
			requireSameBits32(t, what, got[:n], want)
			requireCanary32(t, what, got[n:])
		}
	}
}

// TestFoldMaxMatchesGoLoop: folding row counts 1–17 of widths 1–37 into
// one accumulator from −Inf, FoldMax on the vector kernel is bit-identical
// to the Go loop. Half the values are special, so equal values — +0 against
// −0, the same NaN twice — meet often and the earlier one must stay; the
// accumulator's neighbour is never written.
func TestFoldMaxMatchesGoLoop(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(23))
	for width := 1; width <= 37; width++ {
		for rows := 1; rows <= 17; rows++ {
			vs := special32(rng, rows*width, 0.5)
			want := make([]float32, width)
			for i := range want {
				want[i] = float32(math.Inf(-1))
			}
			got := append(slices.Clone(want), canary, canary, canary, canary, canary, canary, canary, canary)
			for r := 0; r < rows; r++ {
				row := vs[r*width : (r+1)*width]
				onKernels(true, func() { FoldMax(want, row) })
				onKernels(false, func() { FoldMax(got[:width], row) })
			}
			what := fmt.Sprintf("width %d rows %d: FoldMax", width, rows)
			requireSameBits32(t, what, got[:width], want)
			requireCanary32(t, what, got[width:])
		}
	}
}

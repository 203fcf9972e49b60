package nn

import (
	"math"
	"math/rand"
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
	defer SetScalarGemmForTest(SetScalarGemmForTest(false))
	t.Run("native", fn)
	SetScalarGemmForTest(true)
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
						want := lin.Forward(xs[r*in : (r+1)*in])
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
				want := m.Forward(xs[r*13 : (r+1)*13]).Output()[0]
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

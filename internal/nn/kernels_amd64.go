//go:build amd64

// AVX2 dispatch for the assembly kernels: the float32 GEMM (gemm_amd64.s),
// the float32 layer norm, leaky rectifier and pooling fold (f32_amd64.s) and
// the float64 training kernels (f64_amd64.s). This file decides, once
// at startup, whether the running CPU can execute them. Detection is done
// directly via CPUID/XGETBV so a binary compiled for baseline GOAMD64=v1
// still uses the vector kernels on v3-class hardware, and a pre-AVX2
// machine falls back to the portable Go loops.
package nn

// useAVX2 reports whether the assembly kernels are usable: AVX2 + FMA
// present and the OS saves the ymm state.
var useAVX2 = detectAVX2FMA()

// cpuid executes CPUID with the given leaf/subleaf (implemented in assembly).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (implemented in assembly).
func xgetbv() (eax, edx uint32)

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS preserves the
	// full ymm state across context switches.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// gemmPanel8 computes one 8-output panel of the GEMM for rows input rows:
//
//	y[r·yStride + j] = bias[j] + Σ_k x[r·xStride + k] · w[k·8 + j]
//
// for j selected by the 8-lane mask (the output tail of the last panel).
// Strides are in elements. Implemented in gemm_amd64.s with 4×8 FMA tiles.
//
//go:noescape
func gemmPanel8(x, w, y, bias *float32, rows, kUsed, xStride, yStride int, mask *int32)

// The float32 elementwise kernels of f32_amd64.s; f32.go documents each
// beside the Go loop it must equal. tab points at maskTable[0][0].

//go:noescape
func layerNorm8(x, y, gamma, beta *float32, rows, dim int, eps float32, tab *int32)

//go:noescape
func leaky8(xs *float32, n int, alpha float32, tab *int32)

//go:noescape
func foldMax8(acc, vs *float32, n int, tab *int32)

// The float64 kernels of f64_amd64.s; f64.go documents each beside the Go
// loop it must equal. tab points at maskTab[16].

//go:noescape
func panel1(w, bias, x, y *float64, in, pad, out int, tab *int64)

//go:noescape
func panel3(w, bias, x0, x1, x2, y *float64, in, pad, out int, tab *int64)

//go:noescape
func backward4(w, wg, gp, x, gin *float64, n int, tab *int64)

//go:noescape
func addClear(dst, src *float64, n int, tab *int64)

//go:noescape
func adam(value, grad, m, v *float64, n int, c *[10][4]float64, tab *int64)

// SetScalarKernelsForTest forces (or restores) the portable Go loops in
// place of every assembly kernel, float32 and float64, so parity tests can
// exercise both code paths on AVX2 hardware. Returns the previous setting.
// Test use only; not safe to flip concurrently with inference or training.
func SetScalarKernelsForTest(scalar bool) (prev bool) {
	prev = !useAVX2
	useAVX2 = detectAVX2FMA() && !scalar
	return prev
}

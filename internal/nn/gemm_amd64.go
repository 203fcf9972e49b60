//go:build amd64

// AVX2 dispatch for the float32 GEMM. The micro-kernel itself lives in
// gemm_amd64.s; this file decides, once at startup, whether the running CPU
// can execute it. Detection is done directly via CPUID/XGETBV so a binary
// compiled for baseline GOAMD64=v1 still uses the vector kernel on v3-class
// hardware, and a pre-AVX2 machine falls back to gemmPanelScalar.
package nn

// useAVX2 reports whether the fused-multiply-add panel kernel is usable:
// AVX2 + FMA present and the OS saves the ymm state.
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

// SetScalarGemmForTest forces (or restores) the portable scalar kernel, so
// parity tests can exercise both code paths on AVX2 hardware. Returns the
// previous setting. Test use only; not safe to flip concurrently with
// inference.
func SetScalarGemmForTest(scalar bool) (prev bool) {
	prev = !useAVX2
	useAVX2 = detectAVX2FMA() && !scalar
	return prev
}

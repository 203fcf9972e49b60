//go:build !amd64

package nn

// Non-amd64 builds always use the portable Go loops.
const useAVX2 = false

// The assembly kernels are never called when useAVX2 is false; these stubs
// keep the call sites compiling on other architectures.

func gemmPanel8(x, w, y, bias *float32, rows, kUsed, xStride, yStride int, mask *int32) {
	panic("nn: gemmPanel8 without AVX2")
}

func layerNorm8(x, y, gamma, beta *float32, rows, dim int, eps float32, tab *int32) {
	panic("nn: layerNorm8 without AVX2")
}

func leaky8(xs *float32, n int, alpha float32, tab *int32) {
	panic("nn: leaky8 without AVX2")
}

func foldMax8(acc, vs *float32, n int, tab *int32) {
	panic("nn: foldMax8 without AVX2")
}

func panel1(w, bias, x, y *float64, in, pad, out int, tab *int64) {
	panic("nn: panel1 without AVX2")
}

func panel3(w, bias, x0, x1, x2, y *float64, in, pad, out int, tab *int64) {
	panic("nn: panel3 without AVX2")
}

func backward4(w, wg, gp, x, gin *float64, n int, tab *int64) {
	panic("nn: backward4 without AVX2")
}

func addClear(dst, src *float64, n int, tab *int64) {
	panic("nn: addClear without AVX2")
}

func adam(value, grad, m, v *float64, n int, c *[10][4]float64, tab *int64) {
	panic("nn: adam without AVX2")
}

// SetScalarKernelsForTest is a no-op without an assembly kernel to toggle.
func SetScalarKernelsForTest(scalar bool) (prev bool) { return true }

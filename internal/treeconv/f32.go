// Packed float32 tree convolution for snapshots: each layer's three
// filter matrices are packed once, at snapshot time, as one panel matrix over
// the concatenated K = [EP; EL; ER] axis, so a gathered row runs through the
// fused-multiply-add GEMM micro-kernel (StackF32.ForwardRows in rows.go).
package treeconv

import "neo/internal/nn"

// LayerF32 is one packed tree-convolution layer: the three filter matrices
// packed over the concatenated K = [EP; EL; ER] axis, EP first so the leaf
// kernel can run the GEMM over the EP K-prefix alone.
type LayerF32 struct {
	In, Out int
	W       nn.PackedF32
	Alpha   float32
}

// StackF32 is a frozen float32 tree-convolution stack, packed once from
// trained float64 weights. Immutable after construction; safe for concurrent
// use.
type StackF32 struct {
	Layers []*LayerF32
}

// NewStackF32 packs a trained stack for float32 inference.
func NewStackF32(s *Stack) *StackF32 {
	out := &StackF32{}
	for _, l := range s.Layers {
		out.Layers = append(out.Layers, &LayerF32{
			In:  l.InChannels,
			Out: l.OutChannels,
			W: nn.PackF32(l.OutChannels, l.Bias.Value,
				[]int{l.InChannels, l.InChannels, l.InChannels},
				l.EP.Value, l.EL.Value, l.ER.Value),
			Alpha: float32(l.Act.Alpha),
		})
	}
	return out
}

// Bytes returns the packed footprint in bytes.
func (s *StackF32) Bytes() int {
	total := 0
	for _, l := range s.Layers {
		total += l.W.Bytes()
	}
	return total
}

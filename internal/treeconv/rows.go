// Row kernel: the inference pass. The value network's scorer
// (valuenet.Scorer) hands a layer the nodes it has no activations for yet,
// gathered as rows: childless nodes as [x], nodes with a child as
// [x; left; right] with zeros for an absent child. The rows run through the
// packed float32 GEMM, over the EP K-prefix for leaf rows. Both of its
// kernels accumulate a row from zero over ascending k and add the bias last,
// so a row's result depends on that row alone, and a node's activation is
// the same whichever rows share its call.
package treeconv

import "neo/internal/nn"

// ForwardRows runs layer (an index into s.Layers) over gathered rows: leaf
// holds In-wide rows, full holds 3·In-wide rows, and out receives one
// activated Out-wide row per input row, leaves first.
func (s *StackF32) ForwardRows(layer int, leaf, full, out []float32) {
	l := s.Layers[layer]
	nl, nf := len(leaf)/l.In, len(full)/(3*l.In)
	l.W.Gemm(leaf, nl, l.In, out[:nl*l.Out])
	l.W.Gemm(full, nf, 3*l.In, out[nl*l.Out:(nl+nf)*l.Out])
	nn.LeakyInPlace(out[:(nl+nf)*l.Out], l.Alpha)
}

// Row kernels: the inference pass of both precisions. The value network's
// scorer (valuenet.Scorer) hands a layer the nodes it has no activations for
// yet, gathered as rows: childless nodes as [x], nodes with a child as
// [x; left; right] with zeros for an absent child. A row's output depends on
// that row alone, so a node's activation is the same whichever rows share
// its call:
//
//   - float64: convLeafPre per leaf row and convBothPre per interior row, the
//     training tape's kernels. Per channel they run Layer.convolve's
//     operations in its order (a leaf drops the w·0 terms, which leaves the
//     sum equal up to the sign of zero), so a node's output is == to the
//     per-tree reference Forward.
//   - float32: the packed GEMM, over the EP K-prefix for leaf rows. Both of
//     its kernels accumulate a row from zero over ascending k and add the
//     bias last, so a row's result does not depend on which rows share its
//     GEMM.
package treeconv

import "neo/internal/nn"

// ForwardRows runs layer (an index into s.Layers) over gathered rows: leaf
// holds In-wide rows, full holds 3·In-wide rows, and out receives one
// activated Out-wide row per input row, leaves first.
func (s *Stack) ForwardRows(layer int, leaf, full, out []float64) {
	l := s.Layers[layer]
	ic, oc := l.InChannels, l.OutChannels
	o := 0
	for r := 0; r+ic <= len(leaf); r += ic {
		l.convLeafPre(leaf[r:r+ic], out[o:o+oc])
		o += oc
	}
	for r := 0; r+3*ic <= len(full); r += 3 * ic {
		l.convBothPre(full[r:r+ic], full[r+ic:r+2*ic], full[r+2*ic:r+3*ic], out[o:o+oc])
		o += oc
	}
	nn.LeakyInPlace(out[:o], l.Act.Alpha)
}

// ForwardRows is Stack.ForwardRows through the packed panels.
func (s *StackF32) ForwardRows(layer int, leaf, full, out []float32) {
	l := s.Layers[layer]
	nl, nf := len(leaf)/l.In, len(full)/(3*l.In)
	l.W.Gemm(leaf, nl, l.In, out[:nl*l.Out])
	l.W.Gemm(full, nf, 3*l.In, out[nl*l.Out:(nl+nf)*l.Out])
	nn.LeakyInPlace(out[:(nl+nf)*l.Out], l.Alpha)
}

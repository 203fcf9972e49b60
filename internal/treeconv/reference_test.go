package treeconv

import (
	"neo/internal/nn"
	"neo/internal/reftest"
)

// The per-tree float64 reference the parity tests hold the batched tape and
// the float32 panels to lives in internal/reftest. These views hand it this
// package's layers, their weights and gradients aliased, so a reference
// backward pass accumulates into the layers' own gradients.

func refParam(p *nn.Param) reftest.Param { return reftest.Param{Value: p.Value, Grad: p.Grad} }

func refLayer(l *Layer) *reftest.Conv {
	return &reftest.Conv{In: l.InChannels, Out: l.OutChannels, Alpha: l.Act.Alpha,
		EP: refParam(l.EP), EL: refParam(l.EL), ER: refParam(l.ER), Bias: refParam(l.Bias)}
}

func refStack(s *Stack) reftest.Stack {
	out := make(reftest.Stack, len(s.Layers))
	for i, l := range s.Layers {
		out[i] = refLayer(l)
	}
	return out
}

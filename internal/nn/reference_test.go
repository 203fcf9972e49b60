package nn

import "neo/internal/reftest"

// The per-sample float64 reference the parity tests hold the batched tape
// and the float32 panels to lives in internal/reftest. These views hand it
// this package's layers, their weights and gradients aliased, so a
// reference backward pass accumulates into the layers' own gradients.

func refParam(p *Param) reftest.Param { return reftest.Param{Value: p.Value, Grad: p.Grad} }

func refLinear(l *Linear) *reftest.Linear {
	return &reftest.Linear{In: l.In, Out: l.Out, W: refParam(l.W), B: refParam(l.B)}
}

func refNorm(ln *LayerNorm) *reftest.LayerNorm {
	return &reftest.LayerNorm{Eps: ln.Eps, Gamma: refParam(ln.Gamma), Beta: refParam(ln.Beta)}
}

func refMLP(m *MLP) *reftest.MLP {
	r := &reftest.MLP{Alpha: m.Act.Alpha, Norms: make([]*reftest.LayerNorm, len(m.Norms))}
	for _, l := range m.Linears {
		r.Linears = append(r.Linears, refLinear(l))
	}
	for i, ln := range m.Norms {
		if ln != nil {
			r.Norms[i] = refNorm(ln)
		}
	}
	return r
}

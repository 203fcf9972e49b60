package valuenet

import (
	"neo/internal/nn"
	"neo/internal/reftest"
	"neo/internal/treeconv"
)

// The per-sample float64 reference network the parity tests hold the
// batched tape (train.go) and the float32 Scorer (scorer.go) to lives in
// internal/reftest. ref hands it this network's layers, their weights and
// gradients aliased, so refTrainBatch's backward passes accumulate into the
// network's own gradients and its product Adam steps them; export_test.go
// lends refPredict to the external tests.

func refParam(p *nn.Param) reftest.Param { return reftest.Param{Value: p.Value, Grad: p.Grad} }

func refMLP(m *nn.MLP) *reftest.MLP {
	r := &reftest.MLP{Alpha: m.Act.Alpha, Norms: make([]*reftest.LayerNorm, len(m.Norms))}
	for _, l := range m.Linears {
		r.Linears = append(r.Linears, &reftest.Linear{In: l.In, Out: l.Out, W: refParam(l.W), B: refParam(l.B)})
	}
	for i, ln := range m.Norms {
		if ln != nil {
			r.Norms[i] = &reftest.LayerNorm{Eps: ln.Eps, Gamma: refParam(ln.Gamma), Beta: refParam(ln.Beta)}
		}
	}
	return r
}

func refStack(s *treeconv.Stack) reftest.Stack {
	out := make(reftest.Stack, len(s.Layers))
	for i, l := range s.Layers {
		out[i] = &reftest.Conv{In: l.InChannels, Out: l.OutChannels, Alpha: l.Act.Alpha,
			EP: refParam(l.EP), EL: refParam(l.EL), ER: refParam(l.ER), Bias: refParam(l.Bias)}
	}
	return out
}

// ref is n as the reference network.
func (n *Network) ref() *reftest.Network {
	return &reftest.Network{Query: refMLP(n.qmlp), Conv: refStack(n.conv), Head: refMLP(n.head), PlanDim: n.planDim}
}

// refPredict is the reference cost prediction, in the original cost domain.
func (n *Network) refPredict(queryVec []float64, trees []*reftest.Tree) float64 {
	return n.denormalize(n.refPredictNormalized(queryVec, trees))
}

// refPredictNormalized is the reference prediction in normalised log-cost
// space, where the float32 scorer is held to it.
func (n *Network) refPredictNormalized(queryVec []float64, trees []*reftest.Tree) float64 {
	_, out := n.ref().Forward(queryVec, trees)
	return out
}

// refTrainBatch takes one gradient step on samples, backpropagating every
// sample through its own forward tape, and returns the mean L2 loss in
// normalised space: the reference TrainBatch is held to.
func (n *Network) refTrainBatch(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	ref := n.ref()
	total := 0.0
	var cols []int
	for _, s := range samples {
		for c, x := range s.Query {
			if x != 0 {
				cols = append(cols, c)
			}
		}
		st, out := ref.Forward(s.Query, reftest.Trees(s.Nodes, s.Roots))
		loss, grad := nn.L2Loss(out, n.normalize(s.Target))
		total += loss
		ref.Backward(st, grad)
	}
	n.opt.MarkColumns(n.queryInput(), cols)
	n.opt.StepShards(n.Params(), nil, len(samples), 1)
	return total / float64(len(samples))
}

// refSample is the training sample of forest under query vector q, its
// roots numbered in ids.
func refSample(ids *reftest.IDs, q []float64, forest []*reftest.Tree, target float64) Sample {
	return Sample{Query: q, Nodes: ids, Roots: ids.Roots(forest), Target: target}
}

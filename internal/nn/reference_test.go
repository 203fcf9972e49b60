package nn

// The per-sample float64 reference: one vector at a time, allocating freely,
// written as the textbook forward and backward passes. The product trains
// with the batched tape (batch.go, train.go) and scores with the float32
// panels (f32.go); the parity tests hold both to these passes, which no
// product code calls.

import "fmt"

// Forward computes W·x + b.
func (l *Linear) Forward(x []float64) []float64 {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear.Forward input size %d, want %d", len(x), l.In))
	}
	y := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		sum := l.B.Value[o]
		row := l.W.Value[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
	return y
}

// Backward accumulates parameter gradients for the given input and output
// gradient, and returns the gradient with respect to the input.
func (l *Linear) Backward(x, gradOut []float64) []float64 {
	gradIn := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := gradOut[o]
		l.B.Grad[o] += g
		row := l.W.Value[o*l.In : (o+1)*l.In]
		gradRow := l.W.Grad[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			gradRow[i] += g * xi
			gradIn[i] += g * row[i]
		}
	}
	return gradIn
}

// Forward applies the activation elementwise.
func (r *LeakyReLU) Forward(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			y[i] = v
		} else {
			y[i] = r.Alpha * v
		}
	}
	return y
}

// Backward returns the gradient with respect to the input.
func (r *LeakyReLU) Backward(x, gradOut []float64) []float64 {
	gradIn := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = r.Alpha * gradOut[i]
		}
	}
	return gradIn
}

// Forward normalises x.
func (ln *LayerNorm) Forward(x []float64) []float64 {
	mean, std := meanStd(x, ln.Eps)
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = ln.Gamma.Value[i]*(v-mean)/std + ln.Beta.Value[i]
	}
	return y
}

// Backward accumulates parameter gradients and returns the input gradient.
func (ln *LayerNorm) Backward(x, gradOut []float64) []float64 {
	n := float64(len(x))
	mean, std := meanStd(x, ln.Eps)
	xhat := make([]float64, len(x))
	for i, v := range x {
		xhat[i] = (v - mean) / std
	}
	// Gradients w.r.t. gamma/beta.
	dxhat := make([]float64, len(x))
	for i := range x {
		ln.Gamma.Grad[i] += gradOut[i] * xhat[i]
		ln.Beta.Grad[i] += gradOut[i]
		dxhat[i] = gradOut[i] * ln.Gamma.Value[i]
	}
	// Gradient w.r.t. input (standard layer-norm backward).
	var sumDxhat, sumDxhatXhat float64
	for i := range x {
		sumDxhat += dxhat[i]
		sumDxhatXhat += dxhat[i] * xhat[i]
	}
	gradIn := make([]float64, len(x))
	for i := range x {
		gradIn[i] = (dxhat[i] - sumDxhat/n - xhat[i]*sumDxhatXhat/n) / std
	}
	return gradIn
}

// MLPTape records the intermediate activations of one forward pass so that
// Backward can be computed without re-running the network.
type MLPTape struct {
	inputs  [][]float64 // input to each Linear
	preAct  [][]float64 // Linear outputs (pre-activation)
	postAct [][]float64 // activation outputs (input to norm, if any)
	output  []float64
}

// Output returns the forward result recorded on the tape.
func (t *MLPTape) Output() []float64 { return t.output }

// Forward runs the MLP and returns a tape holding the activations.
func (m *MLP) Forward(x []float64) *MLPTape {
	tape := &MLPTape{}
	cur := x
	last := len(m.Linears) - 1
	for i, lin := range m.Linears {
		tape.inputs = append(tape.inputs, cur)
		pre := lin.Forward(cur)
		tape.preAct = append(tape.preAct, pre)
		if i == last {
			tape.postAct = append(tape.postAct, pre)
			cur = pre
			continue
		}
		act := m.Act.Forward(pre)
		tape.postAct = append(tape.postAct, act)
		if m.Norms[i] != nil {
			cur = m.Norms[i].Forward(act)
		} else {
			cur = act
		}
	}
	tape.output = cur
	return tape
}

// Backward propagates gradOut through the taped forward pass, accumulating
// parameter gradients, and returns the gradient with respect to the input.
func (m *MLP) Backward(tape *MLPTape, gradOut []float64) []float64 {
	grad := gradOut
	last := len(m.Linears) - 1
	for i := last; i >= 0; i-- {
		if i != last {
			if m.Norms[i] != nil {
				grad = m.Norms[i].Backward(tape.postAct[i], grad)
			}
			grad = m.Act.Backward(tape.preAct[i], grad)
		}
		grad = m.Linears[i].Backward(tape.inputs[i], grad)
	}
	return grad
}

// Concat concatenates vectors.
func Concat(vs ...[]float64) []float64 {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make([]float64, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

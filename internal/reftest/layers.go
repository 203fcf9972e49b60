package reftest

import (
	"fmt"
	"math"
)

// Param is a weight slice and its gradient: the Value and Grad of one of
// the product's parameters.
type Param struct {
	Value, Grad []float64
}

// Linear is a fully connected layer, y = W·x + b, with W Out×In row-major.
type Linear struct {
	In, Out int
	W, B    Param
}

// Forward computes W·x + b.
func (l *Linear) Forward(x []float64) []float64 {
	if len(x) != l.In {
		panic(fmt.Sprintf("reftest: Linear.Forward input size %d, want %d", len(x), l.In))
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

// Leaky applies the leaky ReLU of slope alpha elementwise.
func Leaky(alpha float64, x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			y[i] = v
		} else {
			y[i] = alpha * v
		}
	}
	return y
}

// LeakyGrad returns the leaky ReLU's input gradient at x.
func LeakyGrad(alpha float64, x, gradOut []float64) []float64 {
	gradIn := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = alpha * gradOut[i]
		}
	}
	return gradIn
}

// LayerNorm normalises a vector to zero mean and unit variance, then scales
// by Gamma and shifts by Beta.
type LayerNorm struct {
	Eps         float64
	Gamma, Beta Param
}

func meanStd(x []float64, eps float64) (float64, float64) {
	if len(x) == 0 {
		return 0, 1
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	variance := 0.0
	for _, v := range x {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(x))
	return mean, math.Sqrt(variance + eps)
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
	dxhat := make([]float64, len(x))
	for i := range x {
		ln.Gamma.Grad[i] += gradOut[i] * xhat[i]
		ln.Beta.Grad[i] += gradOut[i]
		dxhat[i] = gradOut[i] * ln.Gamma.Value[i]
	}
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

// MLP is a stack of Linear layers with a leaky ReLU of slope Alpha after
// every one but the last, each followed by Norms[i] where that is not nil.
type MLP struct {
	Linears []*Linear
	Norms   []*LayerNorm
	Alpha   float64
}

// MLPTape records the intermediate activations of one forward pass.
type MLPTape struct {
	inputs  [][]float64 // input to each Linear
	preAct  [][]float64 // Linear outputs (pre-activation)
	postAct [][]float64 // hidden activation outputs (input to norm, if any)
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
		cur = lin.Forward(cur)
		tape.preAct = append(tape.preAct, cur)
		if i == last {
			break
		}
		cur = Leaky(m.Alpha, cur)
		tape.postAct = append(tape.postAct, cur)
		if m.Norms[i] != nil {
			cur = m.Norms[i].Forward(cur)
		}
	}
	tape.output = cur
	return tape
}

// Backward propagates gradOut through the taped pass, accumulating
// parameter gradients, and returns the input gradient.
func (m *MLP) Backward(tape *MLPTape, gradOut []float64) []float64 {
	grad := gradOut
	last := len(m.Linears) - 1
	for i := last; i >= 0; i-- {
		if i != last {
			if m.Norms[i] != nil {
				grad = m.Norms[i].Backward(tape.postAct[i], grad)
			}
			grad = LeakyGrad(m.Alpha, tape.preAct[i], grad)
		}
		grad = m.Linears[i].Backward(tape.inputs[i], grad)
	}
	return grad
}

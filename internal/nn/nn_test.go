package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const gradEps = 1e-5
const gradTol = 1e-3

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(3, 2, rng)
	y := l.Forward([]float64{1, 2, 3})
	if len(y) != 2 {
		t.Fatalf("output length %d, want 2", len(y))
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for wrong input size")
		}
	}()
	l.Forward([]float64{1})
}

func TestLinearKnownValues(t *testing.T) {
	l := &Linear{In: 2, Out: 2,
		W: &Param{Value: []float64{1, 2, 3, 4}, Grad: make([]float64, 4)},
		B: &Param{Value: []float64{0.5, -0.5}, Grad: make([]float64, 2)},
	}
	y := l.Forward([]float64{1, 1})
	if math.Abs(y[0]-3.5) > 1e-12 || math.Abs(y[1]-6.5) > 1e-12 {
		t.Errorf("Forward = %v, want [3.5 6.5]", y)
	}
}

// numericalGradCheck verifies Backward against finite differences for a
// scalar loss defined as the sum of outputs.
func numericalGradCheck(t *testing.T, forward func() float64, param []float64, analytic []float64, label string) {
	t.Helper()
	for i := range param {
		orig := param[i]
		param[i] = orig + gradEps
		up := forward()
		param[i] = orig - gradEps
		down := forward()
		param[i] = orig
		numeric := (up - down) / (2 * gradEps)
		if math.Abs(numeric-analytic[i]) > gradTol*(1+math.Abs(numeric)) {
			t.Errorf("%s[%d]: numeric %f vs analytic %f", label, i, numeric, analytic[i])
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(4, 3, rng)
	x := []float64{0.5, -1.2, 2.0, 0.1}
	loss := func() float64 {
		y := l.Forward(x)
		s := 0.0
		for _, v := range y {
			s += v
		}
		return s
	}
	// Analytic gradients with dLoss/dy = 1 for every output.
	y := l.Forward(x)
	gradIn := l.Backward(x, ones(len(y)))
	numericalGradCheck(t, loss, l.W.Value, l.W.Grad, "W")
	numericalGradCheck(t, loss, l.B.Value, l.B.Grad, "B")
	// Input gradient check.
	numericInput := make([]float64, len(x))
	for i := range x {
		orig := x[i]
		x[i] = orig + gradEps
		up := loss()
		x[i] = orig - gradEps
		down := loss()
		x[i] = orig
		numericInput[i] = (up - down) / (2 * gradEps)
	}
	for i := range x {
		if math.Abs(numericInput[i]-gradIn[i]) > gradTol {
			t.Errorf("input grad[%d]: numeric %f vs analytic %f", i, numericInput[i], gradIn[i])
		}
	}
}

func TestLeakyReLU(t *testing.T) {
	r := NewLeakyReLU()
	x := []float64{-2, 0, 3}
	y := r.Forward(x)
	if y[0] != -2*r.Alpha || y[1] != 0 || y[2] != 3 {
		t.Errorf("Forward = %v", y)
	}
	g := r.Backward(x, []float64{1, 1, 1})
	if g[0] != r.Alpha || g[2] != 1 {
		t.Errorf("Backward = %v", g)
	}
}

func TestLayerNormForward(t *testing.T) {
	ln := NewLayerNorm(4)
	y := ln.Forward([]float64{1, 2, 3, 4})
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= 4
	if math.Abs(mean) > 1e-9 {
		t.Errorf("normalised output mean = %f, want 0", mean)
	}
	variance := 0.0
	for _, v := range y {
		variance += (v - mean) * (v - mean)
	}
	variance /= 4
	if math.Abs(variance-1) > 1e-3 {
		t.Errorf("normalised output variance = %f, want ~1", variance)
	}
}

func TestLayerNormGradients(t *testing.T) {
	ln := NewLayerNorm(5)
	// Non-trivial gamma/beta.
	for i := range ln.Gamma.Value {
		ln.Gamma.Value[i] = 0.5 + 0.1*float64(i)
		ln.Beta.Value[i] = -0.2 * float64(i)
	}
	x := []float64{0.3, -1.0, 2.0, 0.7, -0.4}
	loss := func() float64 {
		y := ln.Forward(x)
		s := 0.0
		for i, v := range y {
			s += v * float64(i+1) // weighted sum so the gradient is not uniform
		}
		return s
	}
	grads := []float64{1, 2, 3, 4, 5}
	gradIn := ln.Backward(x, grads)
	numericalGradCheck(t, loss, ln.Gamma.Value, ln.Gamma.Grad, "gamma")
	numericalGradCheck(t, loss, ln.Beta.Value, ln.Beta.Grad, "beta")
	numericInput := make([]float64, len(x))
	for i := range x {
		orig := x[i]
		x[i] = orig + gradEps
		up := loss()
		x[i] = orig - gradEps
		down := loss()
		x[i] = orig
		numericInput[i] = (up - down) / (2 * gradEps)
	}
	for i := range x {
		if math.Abs(numericInput[i]-gradIn[i]) > gradTol {
			t.Errorf("input grad[%d]: numeric %f vs analytic %f", i, numericInput[i], gradIn[i])
		}
	}
}

func TestL2Loss(t *testing.T) {
	loss, grad := L2Loss(3, 1)
	if loss != 2 || grad != 2 {
		t.Errorf("L2Loss(3,1) = %f, %f; want 2, 2", loss, grad)
	}
	loss, grad = L2Loss(1, 1)
	if loss != 0 || grad != 0 {
		t.Errorf("L2Loss(1,1) = %f, %f; want 0, 0", loss, grad)
	}
	// Property: loss is non-negative and grad has the sign of pred-target.
	f := func(p, tg float64) bool {
		p = math.Mod(p, 1e6)
		tg = math.Mod(tg, 1e6)
		l, g := L2Loss(p, tg)
		return l >= 0 && (g == 0 || (g > 0) == (p > tg))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMLPForwardBackwardGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{4, 8, 3}, true, rng)
	x := []float64{0.1, -0.5, 0.7, 0.2}
	loss := func() float64 {
		tape := m.Forward(x)
		s := 0.0
		for _, v := range tape.Output() {
			s += v
		}
		return s
	}
	tape := m.Forward(x)
	if len(tape.Output()) != 3 {
		t.Fatalf("output size %d, want 3", len(tape.Output()))
	}
	m.Backward(tape, ones(3))
	for _, p := range m.Params() {
		numericalGradCheck(t, loss, p.Value, p.Grad, p.Name)
	}
}

func TestAdamReducesLossOnRegression(t *testing.T) {
	// Learn y = 2a - 3b + 1 from samples.
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{2, 16, 1}, false, rng)
	opt := NewAdam(0.01)
	target := func(a, b float64) float64 { return 2*a - 3*b + 1 }
	var firstLoss, lastLoss float64
	for epoch := 0; epoch < 300; epoch++ {
		total := 0.0
		const batch = 16
		for i := 0; i < batch; i++ {
			a, b := rng.Float64()*2-1, rng.Float64()*2-1
			tape := m.Forward([]float64{a, b})
			loss, grad := L2Loss(tape.Output()[0], target(a, b))
			total += loss
			m.Backward(tape, []float64{grad})
		}
		opt.StepShards(m.Params(), nil, batch, 1)
		if epoch == 0 {
			firstLoss = total / batch
		}
		lastLoss = total / batch
	}
	if lastLoss > firstLoss*0.05 {
		t.Errorf("Adam failed to reduce loss: first %f, last %f", firstLoss, lastLoss)
	}
	// Check a prediction.
	tape := m.Forward([]float64{0.5, -0.5})
	want := target(0.5, -0.5)
	if math.Abs(tape.Output()[0]-want) > 0.3 {
		t.Errorf("prediction %f too far from %f", tape.Output()[0], want)
	}
}

func TestAdamStepClearsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLinear(2, 2, rng)
	l.Backward([]float64{1, 1}, []float64{1, 1})
	opt := NewAdam(0.001)
	opt.StepShards(l.Params(), nil, 1, 1)
	for _, p := range l.Params() {
		for i, g := range p.Grad {
			if g != 0 {
				t.Fatalf("%s grad[%d] not cleared: %f", p.Name, i, g)
			}
		}
	}
}

func TestMLPPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for too-short size list")
		}
	}()
	NewMLP([]int{4}, false, rand.New(rand.NewSource(1)))
}

func TestConcat(t *testing.T) {
	got := Concat([]float64{1, 2}, nil, []float64{3})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Concat = %v", got)
	}
}

func TestMeanStdEmpty(t *testing.T) {
	m, s := meanStd(nil, 1e-5)
	if m != 0 || s != 1 {
		t.Errorf("meanStd(nil) = %f, %f", m, s)
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func BenchmarkMLPForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP([]int{64, 128, 64, 32, 1}, true, rng)
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape := m.Forward(x)
		m.Backward(tape, []float64{1})
	}
}

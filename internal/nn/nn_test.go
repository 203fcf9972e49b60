package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"neo/internal/reftest"
)

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := refLinear(NewLinear(3, 2, rng))
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
	y := refLinear(l).Forward([]float64{1, 1})
	if math.Abs(y[0]-3.5) > 1e-12 || math.Abs(y[1]-6.5) > 1e-12 {
		t.Errorf("Forward = %v, want [3.5 6.5]", y)
	}
}

func TestLeakyReLU(t *testing.T) {
	r := NewLeakyReLU()
	x := []float64{-2, 0, 3}
	y := reftest.Leaky(r.Alpha, x)
	if y[0] != -2*r.Alpha || y[1] != 0 || y[2] != 3 {
		t.Errorf("Forward = %v", y)
	}
	g := reftest.LeakyGrad(r.Alpha, x, []float64{1, 1, 1})
	if g[0] != r.Alpha || g[2] != 1 {
		t.Errorf("Backward = %v", g)
	}
}

func TestLayerNormForward(t *testing.T) {
	y := refNorm(NewLayerNorm(4)).Forward([]float64{1, 2, 3, 4})
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

func TestAdamReducesLossOnRegression(t *testing.T) {
	// Learn y = 2a - 3b + 1 from samples.
	rng := rand.New(rand.NewSource(4))
	net := NewMLP([]int{2, 16, 1}, false, rng)
	m := refMLP(net)
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
		opt.StepShards(net.Params(), nil, batch, 1)
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
	refLinear(l).Backward([]float64{1, 1}, []float64{1, 1})
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

func TestMeanStdEmpty(t *testing.T) {
	m, s := meanStd(nil, 1e-5)
	if m != 0 || s != 1 {
		t.Errorf("meanStd(nil) = %f, %f", m, s)
	}
}

func BenchmarkMLPForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m := refMLP(NewMLP([]int{64, 128, 64, 32, 1}, true, rng))
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

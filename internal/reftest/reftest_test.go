package reftest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference is what every parity test trusts, so its backward passes
// are checked here against central finite differences of their forward
// passes, under the loss Σ w_i·y_i with w_i = 1 + i/len(y).

const gradEps = 1e-5
const gradTol = 1e-3

// numericalGradCheck verifies analytic, the gradient of the scalar loss
// forward with respect to param, against finite differences.
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

// checkParams runs numericalGradCheck on every parameter.
func checkParams(t *testing.T, forward func() float64, label string, params ...Param) {
	t.Helper()
	for i, p := range params {
		numericalGradCheck(t, forward, p.Value, p.Grad, fmt.Sprint(label, " ", i))
	}
}

// checkNodes runs numericalGradCheck on every node of in against the node
// of grad at the same place.
func checkNodes(t *testing.T, forward func() float64, in, grad *Tree) {
	t.Helper()
	var grads []*Tree
	grad.Walk(func(n *Tree) { grads = append(grads, n) })
	i := 0
	in.Walk(func(n *Tree) {
		numericalGradCheck(t, forward, n.Data, grads[i].Data, fmt.Sprint("node ", i))
		i++
	})
}

func weighted(y []float64) float64 {
	s := 0.0
	for i, v := range y {
		s += v * (1 + float64(i)/float64(len(y)))
	}
	return s
}

func weights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + float64(i)/float64(n)
	}
	return w
}

func randVec(rng *rand.Rand, n int) []float64 { return RandomTree(rng, 1, n).Data }

func randParam(rng *rand.Rand, n int) Param {
	p := Param{Value: make([]float64, n), Grad: make([]float64, n)}
	for i := range p.Value {
		p.Value[i] = rng.NormFloat64() * 0.5
	}
	return p
}

// newMLP builds an MLP of random weights, returning its parameters too.
func newMLP(rng *rand.Rand, sizes []int, useNorm bool) (*MLP, []Param) {
	m := &MLP{Alpha: 0.01, Norms: make([]*LayerNorm, len(sizes)-1)}
	var params []Param
	for i := 0; i+1 < len(sizes); i++ {
		l := &Linear{In: sizes[i], Out: sizes[i+1], W: randParam(rng, sizes[i]*sizes[i+1]), B: randParam(rng, sizes[i+1])}
		m.Linears = append(m.Linears, l)
		params = append(params, l.W, l.B)
		if useNorm && i+2 < len(sizes) {
			m.Norms[i] = &LayerNorm{Eps: 1e-5, Gamma: randParam(rng, sizes[i+1]), Beta: randParam(rng, sizes[i+1])}
			params = append(params, m.Norms[i].Gamma, m.Norms[i].Beta)
		}
	}
	return m, params
}

// newStack builds a convolution stack of random weights, returning its
// parameters too.
func newStack(rng *rand.Rand, channels ...int) (Stack, []Param) {
	var s Stack
	var params []Param
	for i := 0; i+1 < len(channels); i++ {
		in, out := channels[i], channels[i+1]
		l := &Conv{In: in, Out: out, Alpha: 0.01,
			EP: randParam(rng, out*in), EL: randParam(rng, out*in), ER: randParam(rng, out*in), Bias: randParam(rng, out)}
		s = append(s, l)
		params = append(params, l.EP, l.EL, l.ER, l.Bias)
	}
	return s, params
}

func TestLinearGradients(t *testing.T) {
	m, params := newMLP(rand.New(rand.NewSource(2)), []int{4, 3}, false)
	l := m.Linears[0]
	x := []float64{0.5, -1.2, 2.0, 0.1}
	loss := func() float64 { return weighted(l.Forward(x)) }
	gradIn := l.Backward(x, weights(3))
	checkParams(t, loss, "linear", params...)
	numericalGradCheck(t, loss, x, gradIn, "input")
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := &LayerNorm{Eps: 1e-5, Gamma: randParam(rng, 5), Beta: randParam(rng, 5)}
	x := []float64{0.3, -1.0, 2.0, 0.7, -0.4}
	loss := func() float64 { return weighted(ln.Forward(x)) }
	gradIn := ln.Backward(x, weights(5))
	checkParams(t, loss, "norm", ln.Gamma, ln.Beta)
	numericalGradCheck(t, loss, x, gradIn, "input")
}

func TestMLPForwardBackwardGradcheck(t *testing.T) {
	m, params := newMLP(rand.New(rand.NewSource(3)), []int{4, 8, 3}, true)
	x := []float64{0.1, -0.5, 0.7, 0.2}
	loss := func() float64 { return weighted(m.Forward(x).Output()) }
	gradIn := m.Backward(m.Forward(x), weights(3))
	checkParams(t, loss, "mlp", params...)
	numericalGradCheck(t, loss, x, gradIn, "input")
}

// convFixture is a join over a join of two leaves and a leaf: joins with
// both children present, and leaves on both sides.
func convFixture(rng *rand.Rand, dim int) *Tree {
	return Join(randVec(rng, dim), Join(randVec(rng, dim), Leaf(randVec(rng, dim)), Leaf(randVec(rng, dim))), Leaf(randVec(rng, dim)))
}

// TestConvGradients checks a two-layer convolution's filter gradients and
// its input gradients at every node: the two joins and the three leaves.
func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	stack, params := newStack(rng, 3, 4, 5)
	in := convFixture(rng, 3)
	loss := func() float64 {
		s := 0.0
		stack.Forward(in).Output().Walk(func(n *Tree) { s += weighted(n.Data) })
		return s
	}
	tape := stack.Forward(in)
	gradIn := stack.Backward(tape, tape.Output().Map(func(n *Tree) []float64 { return weights(len(n.Data)) }))
	checkParams(t, loss, "filter", params...)
	checkNodes(t, loss, in, gradIn)
}

// TestPoolGradients checks that pooling routes each channel's gradient to
// the node that supplied the maximum, and nowhere else.
func TestPoolGradients(t *testing.T) {
	in := convFixture(rand.New(rand.NewSource(5)), 6)
	loss := func() float64 {
		pooled, _ := Pool(in)
		return weighted(pooled)
	}
	_, argmax := Pool(in)
	checkNodes(t, loss, in, PoolBackward(in, argmax, weights(6)))
}

// TestNetworkGradients checks the whole network's gradient with respect to
// every weight: the query tower's reach the output only through spatial
// replication onto every node of both trees, the convolution's through
// pooling over the forest.
func TestNetworkGradients(t *testing.T) {
	for _, useNorm := range []bool{false, true} {
		rng := rand.New(rand.NewSource(6))
		query, qParams := newMLP(rng, []int{5, 6, 4}, useNorm)
		conv, cParams := newStack(rng, 3+4, 6, 5)
		head, hParams := newMLP(rng, []int{5, 4, 1}, useNorm)
		n := &Network{Query: query, Conv: conv, Head: head, PlanDim: 3}
		q := randVec(rng, 5)
		forest := []*Tree{convFixture(rng, 3), RandomTree(rng, 2, 3)}
		loss := func() float64 {
			_, out := n.Forward(q, forest)
			return out
		}
		st, _ := n.Forward(q, forest)
		n.Backward(st, 1)
		checkParams(t, loss, "query", qParams...)
		checkParams(t, loss, "conv", cParams...)
		checkParams(t, loss, "head", hParams...)
	}
}

package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestMLPBackwardBatchMatchesBackward is the layer-level training parity
// test: over random MLPs (with and without layer norm), one BackwardBatch
// over a batch of rows must accumulate bit-identical parameter gradients and
// input gradients to per-sample Backward calls over the same rows in the
// same order.
func TestMLPBackwardBatchMatchesBackward(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		useNorm := seed%2 == 0
		batched := NewMLP([]int{7, 11, 5, 3}, useNorm, rand.New(rand.NewSource(seed+40)))
		reference := NewMLP([]int{7, 11, 5, 3}, useNorm, rand.New(rand.NewSource(seed+40)))

		const rows = 9
		xs := randRows(rng, rows, 7)
		gradOut := randRows(rng, rows, 3)

		var arena Arena[float64]
		tape := batched.ForwardBatchTape(xs, rows, &arena)
		gotGradIn := batched.BackwardBatch(tape, gradOut, &arena)

		wantGradIn := make([]float64, 0, rows*7)
		for r := 0; r < rows; r++ {
			st := reference.Forward(xs[r*7 : (r+1)*7])
			for i, v := range st.Output() {
				if tape.Output()[r*3+i] != v {
					t.Fatalf("seed %d row %d: forward output differs: batch %v, per-sample %v", seed, r, tape.Output()[r*3+i], v)
				}
			}
			wantGradIn = append(wantGradIn, reference.Backward(st, gradOut[r*3:(r+1)*3])...)
		}

		for i := range wantGradIn {
			if gotGradIn[i] != wantGradIn[i] {
				t.Errorf("seed %d: input gradient %d differs: batch %v, per-sample %v", seed, i, gotGradIn[i], wantGradIn[i])
			}
		}
		bp, rp := batched.Params(), reference.Params()
		for pi := range bp {
			for j := range bp[pi].Grad {
				if bp[pi].Grad[j] != rp[pi].Grad[j] {
					t.Errorf("seed %d: param %s grad[%d] differs: batch %v, per-sample %v",
						seed, bp[pi].Name, j, bp[pi].Grad[j], rp[pi].Grad[j])
				}
			}
		}
	}
}

// TestShadowGradSharesValuesNotGrads pins the shadow contract data-parallel
// gradient workers rely on: shared value storage, private gradients.
func TestShadowGradSharesValuesNotGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{4, 6, 2}, true, rng)
	s := m.ShadowGrad()

	mp, sp := m.Params(), s.Params()
	if len(mp) != len(sp) {
		t.Fatalf("shadow has %d params, original %d", len(sp), len(mp))
	}
	for i := range mp {
		if &mp[i].Value[0] != &sp[i].Value[0] {
			t.Errorf("param %s: shadow must share value storage", mp[i].Name)
		}
		if &mp[i].Grad[0] == &sp[i].Grad[0] {
			t.Errorf("param %s: shadow must own its gradient buffer", mp[i].Name)
		}
		for _, g := range sp[i].Grad {
			if g != 0 {
				t.Errorf("param %s: shadow gradients must start zeroed", mp[i].Name)
			}
		}
	}

	// A backward pass through the shadow must leave the original's gradients
	// untouched.
	var arena Arena[float64]
	xs := randRows(rng, 3, 4)
	tape := s.ForwardBatchTape(xs, 3, &arena)
	s.BackwardBatch(tape, randRows(rng, 3, 2), &arena)
	for i := range mp {
		for _, g := range mp[i].Grad {
			if g != 0 {
				t.Fatalf("param %s: original gradients mutated through the shadow", mp[i].Name)
			}
		}
	}
	touched := false
	for i := range sp {
		for _, g := range sp[i].Grad {
			if g != 0 {
				touched = true
			}
		}
	}
	if !touched {
		t.Error("shadow backward accumulated no gradients at all")
	}
}

// TestLayerNormBackwardBatchMatchesBackward covers the norm layer in
// isolation (it is skipped when an MLP is built without normalisation).
func TestLayerNormBackwardBatchMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rows, dim = 5, 6
	batched := NewLayerNorm(dim)
	reference := NewLayerNorm(dim)
	for i := 0; i < dim; i++ {
		v := rng.NormFloat64()
		batched.Gamma.Value[i], reference.Gamma.Value[i] = v, v
	}
	xs := randRows(rng, rows, dim)
	gradOut := randRows(rng, rows, dim)

	var arena Arena[float64]
	got := batched.BackwardBatch(xs, gradOut, rows, &arena)
	for r := 0; r < rows; r++ {
		want := reference.Backward(xs[r*dim:(r+1)*dim], gradOut[r*dim:(r+1)*dim])
		for i, v := range want {
			if got[r*dim+i] != v {
				t.Errorf("row %d grad[%d]: batch %v, per-sample %v", r, i, got[r*dim+i], v)
			}
		}
	}
	for _, pair := range [][2]*Param{{batched.Gamma, reference.Gamma}, {batched.Beta, reference.Beta}} {
		for j := range pair[0].Grad {
			if math.Abs(pair[0].Grad[j]-pair[1].Grad[j]) != 0 {
				t.Errorf("%s grad[%d]: batch %v, per-sample %v", pair[0].Name, j, pair[0].Grad[j], pair[1].Grad[j])
			}
		}
	}
}

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
		tape := &MLPBatchTape{}
		batched.RecordBatch(tape, xs, rows, &arena)
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
	var tape MLPBatchTape
	s.RecordBatch(&tape, xs, 3, &arena)
	s.BackwardBatch(&tape, randRows(rng, 3, 2), &arena)
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

// TestRecordInputMatchesDenseTape: an MLP recorded as an input layer — over
// rows that are empty, sparse, dense and sprinkled with explicit -0.0 —
// produces the dense tape's outputs and, after BackwardBatch, bit-identical
// parameter gradients, and returns no input gradient. (The full training
// step is held to the pre-change kernels by internal/core's oracle tests.)
func TestRecordInputMatchesDenseTape(t *testing.T) {
	const rows, in = 6, 53
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, rows*in)
	for r := 1; r < rows; r++ { // row 0 stays all zero
		for i := 0; i < in; i++ {
			switch {
			case r == 1 || rng.Intn(10) == 0:
				xs[r*in+i] = rng.NormFloat64()
			case rng.Intn(10) == 0:
				xs[r*in+i] = math.Copysign(0, -1)
			}
		}
	}
	gradOut := randRows(rng, rows, 3)
	for _, useNorm := range []bool{false, true} {
		sparse := NewMLP([]int{in, 7, 6, 3}, useNorm, rand.New(rand.NewSource(21)))
		dense := NewMLP([]int{in, 7, 6, 3}, useNorm, rand.New(rand.NewSource(21)))

		var arena Arena[float64]
		var tape MLPBatchTape
		for pass := 0; pass < 2; pass++ { // the second pass reuses the tape's headers
			sparse.RecordInput(&tape, xs, rows, &arena)
			want := &MLPBatchTape{}
			dense.RecordBatch(want, xs, rows, &arena)
			for i, v := range want.Output() {
				if tape.Output()[i] != v {
					t.Fatalf("norm=%v pass %d: output %d = %v, dense %v", useNorm, pass, i, tape.Output()[i], v)
				}
			}
			if gin := sparse.BackwardBatch(&tape, gradOut, &arena); gin != nil {
				t.Fatalf("norm=%v: an input tape returned a %d-value input gradient", useNorm, len(gin))
			}
			dense.BackwardBatch(want, gradOut, &arena)
			sp, dp := sparse.Params(), dense.Params()
			for pi := range sp {
				for j := range sp[pi].Grad {
					if math.Float64bits(sp[pi].Grad[j]) != math.Float64bits(dp[pi].Grad[j]) {
						t.Fatalf("norm=%v pass %d: %s grad[%d] = %v, dense %v", useNorm, pass, sp[pi].Name, j, sp[pi].Grad[j], dp[pi].Grad[j])
					}
				}
			}
		}
	}
}

// TestStepShardsMatchesReduceThenStep: the fused pass leaves values,
// gradients and (through a second step) moments exactly where summing the
// shard gradients into the live ones in shard order and then calling Step
// does, for any worker count, and clears every shard buffer. The parameters
// span several spans and include elements no gradient ever touches.
func TestStepShardsMatchesReduceThenStep(t *testing.T) {
	build := func() ([]*Param, [][]*Param) {
		rng := rand.New(rand.NewSource(3))
		lin := []*Linear{NewLinear(3*stepSpanLen/64+5, 64, rng), NewLinear(9, 4, rng)}
		var params []*Param
		for _, l := range lin {
			params = append(params, l.Params()...)
		}
		shards := make([][]*Param, 3)
		for s := range shards {
			for _, l := range lin {
				shards[s] = append(shards[s], l.ShadowGrad().Params()...)
			}
		}
		return params, shards
	}
	fill := func(rng *rand.Rand, params []*Param, shards [][]*Param) {
		for _, set := range append([][]*Param{params}, shards...) {
			for _, p := range set {
				for j := range p.Grad {
					if j%3 != 0 { // every third element never sees a gradient
						p.Grad[j] = rng.NormFloat64()
					}
				}
			}
		}
	}
	// run takes three steps, refilling every gradient buffer before each.
	run := func(step func(a *Adam, params []*Param, shards [][]*Param)) ([]*Param, [][]*Param) {
		params, shards := build()
		a := NewAdam(1e-2)
		for i := int64(0); i < 3; i++ {
			fill(rand.New(rand.NewSource(i)), params, shards)
			step(a, params, shards)
		}
		return params, shards
	}
	want, _ := run(func(a *Adam, params []*Param, shards [][]*Param) {
		for _, sh := range shards {
			for pi, p := range params {
				for j, g := range sh[pi].Grad {
					p.Grad[j] += g
				}
			}
		}
		a.Step(params, 5)
	})
	for workers := 1; workers <= 4; workers++ {
		got, shards := run(func(a *Adam, params []*Param, shards [][]*Param) {
			a.StepShards(params, shards, 5, workers)
		})
		for pi, p := range got {
			for j := range p.Value {
				if p.Value[j] != want[pi].Value[j] {
					t.Fatalf("workers=%d: %s[%d] = %v, reduce-then-Step %v", workers, p.Name, j, p.Value[j], want[pi].Value[j])
				}
				if p.Grad[j] != 0 {
					t.Fatalf("workers=%d: %s grad[%d] not cleared", workers, p.Name, j)
				}
			}
			for s, sh := range shards {
				for j, g := range sh[pi].Grad {
					if g != 0 {
						t.Fatalf("workers=%d: shard %d %s grad[%d] not cleared", workers, s, p.Name, j)
					}
				}
			}
		}
	}
}

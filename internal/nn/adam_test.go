package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// fullWalkStepShards is Adam.StepShards as it stood before TrackColumns:
// spans over every element of every parameter, reduced and updated by
// fullWalkUpdateSpan. Both are kept verbatim as the oracle the live-column
// walk must match bit for bit.
func fullWalkStepShards(a *Adam, params []*Param, shards [][]*Param, batchSize, workers int) {
	if batchSize < 1 {
		batchSize = 1
	}
	a.step++
	scale := 1.0 / float64(batchSize)
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	a.spans = a.spans[:0]
	for pi, p := range params {
		if _, ok := a.m[p]; !ok {
			a.m[p] = make([]float64, len(p.Value))
		}
		if _, ok := a.v[p]; !ok {
			a.v[p] = make([]float64, len(p.Value))
		}
		for lo := 0; lo < len(p.Value); lo += stepSpanLen {
			a.spans = append(a.spans, stepSpan{p: pi, lo: lo, hi: min(lo+stepSpanLen, len(p.Value))})
		}
	}
	Parallel(workers, len(a.spans), func(i int) {
		fullWalkUpdateSpan(a, params, shards, a.spans[i], scale, bc1, bc2)
	})
}

func fullWalkUpdateSpan(a *Adam, params []*Param, shards [][]*Param, s stepSpan, scale, bc1, bc2 float64) {
	p := params[s.p]
	grad := p.Grad[s.lo:s.hi]
	for _, sh := range shards {
		sg := sh[s.p].Grad[s.lo:s.hi]
		for j, g := range sg {
			grad[j] += g
			sg[j] = 0
		}
	}
	value := p.Value[s.lo:s.hi]
	m := a.m[p][s.lo:s.hi]
	v := a.v[p][s.lo:s.hi]
	for i := range value {
		g := grad[i]*scale + a.WeightDecay*value[i]
		grad[i] = 0
		if g == 0 && m[i] == 0 && v[i] == 0 {
			continue
		}
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		value[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
	}
}

// adamRig is an MLP fed with data (RecordInput), its gradient shards and an
// optimizer: the live side tracks the input layer's columns and steps with
// StepShards, the reference side steps with the full walk.
type adamRig struct {
	mlp    *MLP
	shards []*MLP
	tapes  []MLPBatchTape
	params []*Param
	shadow [][]*Param
	opt    *Adam
	live   bool
}

func newAdamRig(in int, live bool) *adamRig {
	r := &adamRig{mlp: NewMLP([]int{in, 9, 4, 1}, true, rand.New(rand.NewSource(7))), opt: NewAdam(3e-2), live: live}
	r.params = r.mlp.Params()
	for s := 0; s < 3; s++ {
		sh := r.mlp.ShadowGrad()
		r.shards = append(r.shards, sh)
		r.shadow = append(r.shadow, sh.Params())
	}
	r.tapes = make([]MLPBatchTape, len(r.shards))
	if live {
		r.opt.TrackColumns(r.mlp.Linears[0].W, in)
	}
	return r
}

// step runs every shard over its rows (output gradient = output) and takes
// one optimizer step.
func (r *adamRig) step(rows [][]float64, in, workers int) {
	var a Arena[float64]
	n := 0
	for s, xs := range rows {
		n += len(xs) / in
		r.shards[s].RecordInput(&r.tapes[s], xs, len(xs)/in, &a)
		r.shards[s].BackwardBatch(&r.tapes[s], r.tapes[s].Output(), &a)
	}
	if !r.live {
		fullWalkStepShards(r.opt, r.params, r.shadow[:len(rows)], n, workers)
		return
	}
	for s := range rows {
		r.opt.MarkColumns(r.mlp.Linears[0].W, r.tapes[s].InputColumns())
	}
	r.opt.StepShards(r.params, r.shadow[:len(rows)], n, workers)
}

// restore replaces the rig's optimizer with one restored from a save of it
// (how a checkpoint resumes) or copied from it (CopyState, how a network is
// cloned for a checkpoint or handed between daemons).
func (r *adamRig) restore(t *testing.T, how string) {
	t.Helper()
	next := NewAdam(r.opt.LR)
	if r.live {
		next.TrackColumns(r.mlp.Linears[0].W, r.mlp.Linears[0].In)
	}
	switch how {
	case "load":
		var buf bytes.Buffer
		if err := r.opt.Save(&buf, r.params); err != nil {
			t.Fatal(err)
		}
		if err := next.Load(&buf, r.params); err != nil {
			t.Fatal(err)
		}
	case "copy":
		next.CopyState(r.opt, r.params, r.params)
	}
	r.opt = next
}

// sparseInputRows draws count rows of width in whose non-zeros lie in cols.
func sparseInputRows(rng *rand.Rand, count, in int, cols []int) []float64 {
	xs := make([]float64, count*in)
	for r := 0; r < count; r++ {
		for _, c := range cols {
			if rng.Intn(2) == 0 {
				xs[r*in+c] = rng.NormFloat64()
			}
		}
	}
	return xs
}

// TestAdamLiveColumnsMatchFullWalk: stepping only the input layer's live
// columns leaves weights, both moments and the outputs == to the full walk
// (a) when a never-seen column first appears steps after training began,
// (b) across an optimizer restored from a save, or copied, mid-training —
// the live columns are rebuilt from the moments — and (c) for 1 and 2
// workers.
func TestAdamLiveColumnsMatchFullWalk(t *testing.T) {
	const in = 61 // off the run-merging gap and the span length
	phases := []struct {
		cols    []int
		restore string
	}{
		{cols: []int{0, 1, 2, 5, 13}},
		{cols: []int{1, 2, 40}},                          // 40 is new
		{cols: []int{0, 5, 23, 24, 60}, restore: "load"}, // 23, 24, 60 are new
		{cols: []int{13, 40, 41, 59}, restore: "copy"},   // 41, 59 are new
		{cols: []int{0, 23, 41, 60}, restore: "load"},    // nothing new
	}
	for _, workers := range []int{1, 2} {
		live, full := newAdamRig(in, true), newAdamRig(in, false)
		rng := rand.New(rand.NewSource(int64(workers)))
		for pi, ph := range phases {
			if ph.restore != "" {
				live.restore(t, ph.restore)
				full.restore(t, ph.restore)
			}
			for s := 0; s < 4; s++ {
				var rows [][]float64
				for sh := 0; sh < 1+s%3; sh++ {
					rows = append(rows, sparseInputRows(rng, 2+sh, in, ph.cols))
				}
				live.step(rows, in, workers)
				full.step(rows, in, workers)
				for i := range rows {
					lo, fo := live.tapes[i].Output(), full.tapes[i].Output()
					for j := range lo {
						if math.Float64bits(lo[j]) != math.Float64bits(fo[j]) {
							t.Fatalf("workers=%d phase %d step %d: output %v, full walk %v", workers, pi, s, lo[j], fo[j])
						}
					}
				}
				requireSameAdam(t, workers, pi, s, live, full)
			}
		}
	}
}

func requireSameAdam(t *testing.T, workers, phase, step int, live, full *adamRig) {
	t.Helper()
	if live.opt.step != full.opt.step {
		t.Fatalf("workers=%d phase %d step %d: Adam step %d, full walk %d", workers, phase, step, live.opt.step, full.opt.step)
	}
	for pi, p := range live.params {
		q := full.params[pi]
		for _, c := range []struct {
			what      string
			got, want []float64
		}{
			{"value", p.Value, q.Value},
			{"first moment", live.opt.m[p], full.opt.m[q]},
			{"second moment", live.opt.v[p], full.opt.v[q]},
		} {
			for j := range c.want {
				if math.Float64bits(c.got[j]) != math.Float64bits(c.want[j]) {
					t.Fatalf("workers=%d phase %d step %d: %s of %s[%d] = %v, full walk %v",
						workers, phase, step, c.what, p.Name, j, c.got[j], c.want[j])
				}
			}
		}
	}
}

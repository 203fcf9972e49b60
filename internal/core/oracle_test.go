package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"neo/internal/nn"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/reftest"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/internal/wire"
)

// Exactness oracle for the training step. refNet is a private copy of a
// network's learned state — weights, target transform, Adam step and
// moments, read back through Network.Save — trained by the per-sample
// float64 reference (internal/reftest): every sample through its own
// forward and backward pass, gradients summed in sample order, then one
// step of refAdam, an optimizer of the test's own that walks every element
// where the product's walks only the query tower's ever-live input columns.
// The product trains in shards, sums the shards' gradients in the step, and
// backpropagates a subtree shared inside a shard once, so the tests hold
// sharedTol rather than ==. They compare in-process, so the agreement is
// checked under whichever GOAMD64 level the test binary is built for (CI's
// kernel-parity job runs this package under v1 and v3).

// refAdam is nn.Adam with the three-pass Step, verbatim; moments are keyed
// by parameter index (nil until first stepped, as the maps were empty).
type refAdam struct {
	LR, Beta1, Beta2, Eps, WeightDecay float64

	step int
	m, v [][]float64
}

func (a *refAdam) Step(params []*nn.Param, batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	a.step++
	scale := 1.0 / float64(batchSize)
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for pi, p := range params {
		if a.m[pi] == nil {
			a.m[pi] = make([]float64, len(p.Value))
		}
		m := a.m[pi]
		if a.v[pi] == nil {
			a.v[pi] = make([]float64, len(p.Value))
		}
		v := a.v[pi]
		for i := range p.Value {
			g := p.Grad[i]*scale + a.WeightDecay*p.Value[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Value[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		clear(p.Grad)
	}
}

// refParam, refMLP and refStack hand reftest the reference's own layers,
// their weights and gradients aliased.
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

// refNet is the reference trainer: a private copy of a network's learned
// state, trained one sample at a time.
type refNet struct {
	net       *reftest.Network
	params    []*nn.Param
	opt       refAdam
	mean, std float64
}

// netState is a network's learned state as valuenet.Network.Save writes it.
type netState struct {
	queryDim, planDim int
	mean, std         float64
	values            [][]float64
	step              uint64
	m, v              [][]float64 // empty for a parameter never stepped
}

func readNetState(t testing.TB, net *valuenet.Network) netState {
	t.Helper()
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatalf("decoding saved network: %v", err)
		}
	}
	var st netState
	queryDim, err := wire.ReadU32(&buf)
	must(err)
	planDim, err := wire.ReadU32(&buf)
	must(err)
	st.queryDim, st.planDim = int(queryDim), int(planDim)
	st.mean, err = wire.ReadF64(&buf)
	must(err)
	st.std, err = wire.ReadF64(&buf)
	must(err)
	n, err := wire.ReadU32(&buf)
	must(err)
	for i := 0; i < int(n); i++ {
		_, err = wire.ReadString(&buf)
		must(err)
		vals, err := wire.ReadF64s(&buf)
		must(err)
		st.values = append(st.values, vals)
	}
	st.step, err = wire.ReadU64(&buf)
	must(err)
	n, err = wire.ReadU32(&buf)
	must(err)
	for i := 0; i < int(n); i++ {
		m, err := wire.ReadF64s(&buf)
		must(err)
		v, err := wire.ReadF64s(&buf)
		must(err)
		st.m = append(st.m, m)
		st.v = append(st.v, v)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after the saved network", buf.Len())
	}
	return st
}

// newRefNet builds the reference with net's architecture, weights, target
// transform and optimizer state.
func newRefNet(t testing.TB, net *valuenet.Network) *refNet {
	t.Helper()
	cfg := net.Config()
	st := readNetState(t, net)
	rng := rand.New(rand.NewSource(0)) // initial weights are overwritten below
	qSizes := append([]int{st.queryDim}, cfg.QueryLayers...)
	convSizes := append([]int{st.planDim + qSizes[len(qSizes)-1]}, cfg.TreeChannels...)
	headSizes := append(append([]int{convSizes[len(convSizes)-1]}, cfg.HeadLayers...), 1)
	qmlp := nn.NewMLP(qSizes, cfg.UseLayerNorm, rng)
	conv := treeconv.NewStack(convSizes, rng)
	head := nn.NewMLP(headSizes, cfg.UseLayerNorm, rng)
	r := &refNet{
		net:  &reftest.Network{Query: refMLP(qmlp), Conv: refStack(conv), Head: refMLP(head), PlanDim: st.planDim},
		opt:  refAdam{LR: cfg.LearningRate, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8},
		mean: st.mean,
		std:  st.std,
	}
	r.params = append(r.params, qmlp.Params()...)
	r.params = append(r.params, conv.Params()...)
	r.params = append(r.params, head.Params()...)
	if len(st.values) != len(r.params) {
		t.Fatalf("network has %d parameters, reference %d", len(st.values), len(r.params))
	}
	r.opt.step = int(st.step)
	r.opt.m = make([][]float64, len(r.params))
	r.opt.v = make([][]float64, len(r.params))
	for i, p := range r.params {
		if len(st.values[i]) != len(p.Value) {
			t.Fatalf("parameter %d has %d values, reference %d", i, len(st.values[i]), len(p.Value))
		}
		copy(p.Value, st.values[i])
		if len(st.m[i]) > 0 {
			r.opt.m[i], r.opt.v[i] = st.m[i], st.v[i]
		}
	}
	return r
}

func (r *refNet) normalize(cost float64) float64 {
	return (math.Log1p(math.Max(cost, 0)) - r.mean) / r.std
}

// trainBatch takes one gradient step on samples and returns their mean L2
// loss in normalised space.
func (r *refNet) trainBatch(samples []valuenet.Sample) float64 {
	total := 0.0
	for _, s := range samples {
		st, out := r.net.Forward(s.Query, reftest.Trees(s.Nodes, s.Roots))
		loss, grad := nn.L2Loss(out, r.normalize(s.Target))
		total += loss
		r.net.Backward(st, grad)
	}
	r.opt.Step(r.params, len(samples))
	return total / float64(len(samples))
}

// train is valuenet.Network.Train over trainBatch.
func (r *refNet) train(samples []valuenet.Sample, epochs, batchSize int, rng *rand.Rand) float64 {
	costs := make([]float64, len(samples))
	for i, s := range samples {
		costs[i] = s.Target
	}
	fit := valuenet.New(1, 1, valuenet.DefaultConfig()) // only for its (unchanged) target-transform fit
	fit.FitTargetTransform(costs)
	r.mean, r.std = fit.TargetTransform()
	var last float64
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += batchSize {
			end := min(start+batchSize, len(idx))
			batch := make([]valuenet.Sample, 0, end-start)
			for _, i := range idx[start:end] {
				batch = append(batch, samples[i])
			}
			epochLoss += r.trainBatch(batch)
			batches++
		}
		last = epochLoss / float64(batches)
	}
	return last
}

// agree reports whether got is within tol of want, relative to the larger
// magnitude; tol 0 demands ==.
func agree(got, want, tol float64) bool {
	if tol == 0 {
		return got == want
	}
	return math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
}

// sharedTol is the agreement the tests demand: construction states of one
// experience entry share subtrees inside a shard, and the product sums a
// shared row's gradients before backpropagating them once, and its shards'
// gradients in the step, where the reference backpropagates each copy and
// sums in sample order (the bound batched training is held to against the
// per-sample path).
const sharedTol = 1e-9

// requireSameState fails unless the product network and the reference hold
// == weights, target transform, Adam step and moments.
func requireSameState(t *testing.T, when string, net *valuenet.Network, ref *refNet) {
	t.Helper()
	requireStateWithin(t, when, net, ref, 0)
}

// requireStateWithin fails unless the product network and the reference hold
// the same target transform and Adam step, and weights and Adam moments that
// agree within tol.
func requireStateWithin(t *testing.T, when string, net *valuenet.Network, ref *refNet, tol float64) {
	t.Helper()
	st := readNetState(t, net)
	if st.mean != ref.mean || st.std != ref.std {
		t.Fatalf("%s: target transform %v/%v, reference %v/%v", when, st.mean, st.std, ref.mean, ref.std)
	}
	if int(st.step) != ref.opt.step {
		t.Fatalf("%s: Adam step %d, reference %d", when, st.step, ref.opt.step)
	}
	same := func(what string, pi int, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s of %s has %d values, reference %d", when, what, ref.params[pi].Name, len(got), len(want))
		}
		for j := range got {
			if !agree(got[j], want[j], tol) {
				t.Fatalf("%s: %s of %s[%d] = %v, reference %v", when, what, ref.params[pi].Name, j, got[j], want[j])
			}
		}
	}
	for pi, p := range ref.params {
		same("value", pi, st.values[pi], p.Value)
		same("first moment", pi, st.m[pi], ref.opt.m[pi])
		same("second moment", pi, st.v[pi], ref.opt.v[pi])
	}
}

// TestRetrainMatchesParentKernels: on the real training samples of a
// bootstrapped system — real query encodings, real construction states —
// two retraining rounds (new experience between them) leave the live network
// within sharedTol of the state the reference reaches from the same samples
// and the same random stream, for 1, 2 and 4 gradient workers.
func TestRetrainMatchesParentKernels(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		setProcs(t, workers)
		rig := newRig(t, "postgres")
		n := rig.neo
		if err := n.Bootstrap(rig.wl.Queries[:6], rig.expertFunc()); err != nil {
			t.Fatal(err)
		}
		ref := newRefNet(t, n.Net)
		requireSameState(t, "after bootstrap", n.Net, ref)

		steps := 0
		for round := 0; round < 2; round++ {
			// New experience for the round: the expert's plans for two
			// queries the system has not seen.
			for _, q := range rig.wl.Queries[6+2*round : 8+2*round] {
				p, err := rig.expertFunc()(q)
				if err != nil {
					t.Fatal(err)
				}
				lat, _, err := n.Engine.Execute(p)
				if err != nil {
					t.Fatal(err)
				}
				n.Experience.Add(q, p, lat)
			}
			samples := n.trainingSamplesLocked(maxTrainSamples)
			if len(samples) > maxTrainSamples {
				t.Fatalf("%d samples exceed maxTrainSamples: the reference round would need Retrain's shuffle too", len(samples))
			}
			// The reference trains on the scan's targets. Below the cap the
			// samples come in entry order, each entry's states in order.
			entries, k := n.Experience.Entries(), 0
			for _, entry := range entries {
				for _, partial := range constructionStates(entry.Plan, plan.NewNodes()) {
					samples[k].Target = refTarget(entries, entry, partial, n.cost)
					k++
				}
			}
			// The reference draws from a twin of the training stream.
			twin := &countingSource{seed: n.rngSrc.seed, draws: n.rngSrc.draws}

			got := n.Retrain()
			want := ref.train(samples, n.Config.TrainEpochs, batchSize, rand.New(twin))
			if !agree(got, want, sharedTol) {
				t.Fatalf("workers=%d round %d: loss %v, reference %v", workers, round, got, want)
			}
			requireStateWithin(t, "after a retraining round", n.Net, ref, sharedTol)
			steps += n.Config.TrainEpochs * ((len(samples) + batchSize - 1) / batchSize)
		}
		if steps < 20 {
			t.Fatalf("only %d gradient steps compared, want at least 20", steps)
		}
	}
}

// TestRetrainLiveColumnsMatchFullWalk: the optimizer steps only the query
// tower's input columns that some training encoding has had a non-zero in,
// where the reference's Adam walks every element. On real encodings, three
// retraining rounds must leave the network within sharedTol of the reference
// — the construction states' shared subtrees keep it from == — (a) when
// each round's new experience brings a query column no earlier round had,
// (b) after a checkpoint restore, whose live columns are rebuilt from the
// Adam moments, and after a State/Restore copy, and (c) for 1 and 2 workers.
func TestRetrainLiveColumnsMatchFullWalk(t *testing.T) {
	for _, workers := range []int{1, 2} {
		setProcs(t, workers)
		rig := newRig(t, "postgres")
		n := rig.neo
		boot := rig.wl.Queries[:3]
		if err := n.Bootstrap(boot, rig.expertFunc()); err != nil {
			t.Fatal(err)
		}
		ref := newRefNet(t, n.Net)
		seen := map[int]bool{}
		newColumns := func(q *query.Query) int {
			fresh := 0
			for c, x := range n.Featurizer.EncodeQuery(q) {
				if x != 0 && !seen[c] {
					seen[c] = true
					fresh++
				}
			}
			return fresh
		}
		for _, q := range boot {
			newColumns(q)
		}
		rest := rig.wl.Queries[3:]
		for round, restore := range []string{"", "checkpoint", "copy"} {
			switch restore {
			case "checkpoint":
				var buf bytes.Buffer
				if err := n.Net.Save(&buf); err != nil {
					t.Fatal(err)
				}
				dims := readNetState(t, n.Net)
				restored := valuenet.New(dims.queryDim, dims.planDim, n.Net.Config())
				if err := restored.Load(&buf); err != nil {
					t.Fatal(err)
				}
				st := n.State()
				st.Net = restored
				n.Restore(st)
			case "copy":
				n.Restore(n.State())
			}
			// The round's experience: the next held-back query that brings a
			// column no earlier round's encodings had.
			var q *query.Query
			for len(rest) > 0 && q == nil {
				if newColumns(rest[0]) > 0 {
					q = rest[0]
				}
				rest = rest[1:]
			}
			if q == nil {
				t.Fatalf("round %d: no held-back query brings a new column", round)
			}
			p, err := rig.expertFunc()(q)
			if err != nil {
				t.Fatal(err)
			}
			lat, _, err := n.Engine.Execute(p)
			if err != nil {
				t.Fatal(err)
			}
			n.Experience.Add(q, p, lat)
			samples := n.trainingSamplesLocked(maxTrainSamples)
			twin := &countingSource{seed: n.rngSrc.seed, draws: n.rngSrc.draws}

			got := n.Retrain()
			want := ref.train(samples, n.Config.TrainEpochs, batchSize, rand.New(twin))
			if !agree(got, want, sharedTol) {
				t.Fatalf("workers=%d round %d: loss %v, reference %v", workers, round, got, want)
			}
			requireStateWithin(t, "after a round with a new query column", n.Net, ref, sharedTol)
		}
	}
}

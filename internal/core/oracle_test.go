package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"neo/internal/nn"
	"neo/internal/query"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/internal/wire"
)

// Exactness oracle for the training kernels. refNet below is the training
// step as it stood before the input layer, the blocked tree-convolution
// backward and the fused optimizer pass: the three loops those replaced —
// the dense Linear.BackwardBatch, backwardBatchNodes and the
// reduce-then-Adam.Step — are copied verbatim from that commit, and the glue
// around them (shard partition, query deduplication, spatial replication,
// tapes, minibatch loop) is rebuilt from exported pieces that did not change
// (the inference kernels, pooling, layer norm, activation). The tests require
// == between the product and the reference on every weight, every Adam
// moment and the returned loss. They compare in-process rather than against a
// recorded hash because GOAMD64=v3 fuses multiply-adds: constants differ
// between build levels, while product-vs-reference equality must hold under
// each (CI's kernel-parity job runs this package under v1 and v3).

// refLinearBackwardBatch is the dense Linear.BackwardBatch, verbatim.
func refLinearBackwardBatch(l *nn.Linear, xs, gradOut []float64, rows int, a *nn.Arena[float64]) []float64 {
	if len(xs) != rows*l.In || len(gradOut) != rows*l.Out {
		panic("nn: Linear.BackwardBatch size mismatch")
	}
	gradIn := a.Alloc(rows * l.In)
	for i := range gradIn {
		gradIn[i] = 0
	}
	for r := 0; r < rows; r++ {
		x := xs[r*l.In : (r+1)*l.In]
		gout := gradOut[r*l.Out : (r+1)*l.Out]
		gin := gradIn[r*l.In : (r+1)*l.In]
		for o := 0; o < l.Out; o++ {
			g := gout[o]
			l.B.Grad[o] += g
			row := l.W.Value[o*l.In : (o+1)*l.In]
			gradRow := l.W.Grad[o*l.In : (o+1)*l.In]
			for i, xi := range x {
				gradRow[i] += g * xi
				gin[i] += g * row[i]
			}
		}
	}
	return gradIn
}

// refBackwardBatchNodes is the unblocked backwardBatchNodes, verbatim.
func refBackwardBatchNodes(l *treeconv.Layer, in *treeconv.Batch[float64], gradPre, gradIn []float64) {
	ic := l.InChannels
	oc := l.OutChannels
	for n := 0; n < in.N; n++ {
		x := in.Row(n)
		li, ri := in.Left[n], in.Right[n]
		gin := gradIn[n*ic : (n+1)*ic]
		gp := gradPre[n*oc : (n+1)*oc]
		switch {
		case li < 0 && ri < 0:
			for o := 0; o < oc; o++ {
				g := gp[o]
				if g == 0 {
					continue
				}
				l.Bias.Grad[o] += g
				ep := l.EP.Value[o*ic : (o+1)*ic]
				epg := l.EP.Grad[o*ic : (o+1)*ic]
				for i := 0; i < ic; i++ {
					epg[i] += g * x[i]
					gin[i] += g * ep[i]
				}
			}
		case li >= 0 && ri >= 0:
			xl, xr := in.Row(li), in.Row(ri)
			ginL := gradIn[li*ic : (li+1)*ic]
			ginR := gradIn[ri*ic : (ri+1)*ic]
			for o := 0; o < oc; o++ {
				g := gp[o]
				if g == 0 {
					continue
				}
				l.Bias.Grad[o] += g
				ep := l.EP.Value[o*ic : (o+1)*ic]
				el := l.EL.Value[o*ic : (o+1)*ic]
				er := l.ER.Value[o*ic : (o+1)*ic]
				epg := l.EP.Grad[o*ic : (o+1)*ic]
				elg := l.EL.Grad[o*ic : (o+1)*ic]
				erg := l.ER.Grad[o*ic : (o+1)*ic]
				for i := 0; i < ic; i++ {
					epg[i] += g * x[i]
					elg[i] += g * xl[i]
					erg[i] += g * xr[i]
					gin[i] += g * ep[i]
					ginL[i] += g * el[i]
					ginR[i] += g * er[i]
				}
			}
		default:
			var xl, xr, ginL, ginR []float64
			if li >= 0 {
				xl = in.Row(li)
				ginL = gradIn[li*ic : (li+1)*ic]
			}
			if ri >= 0 {
				xr = in.Row(ri)
				ginR = gradIn[ri*ic : (ri+1)*ic]
			}
			for o := 0; o < oc; o++ {
				g := gp[o]
				if g == 0 {
					continue
				}
				l.Bias.Grad[o] += g
				ep := l.EP.Value[o*ic : (o+1)*ic]
				el := l.EL.Value[o*ic : (o+1)*ic]
				er := l.ER.Value[o*ic : (o+1)*ic]
				epg := l.EP.Grad[o*ic : (o+1)*ic]
				elg := l.EL.Grad[o*ic : (o+1)*ic]
				erg := l.ER.Grad[o*ic : (o+1)*ic]
				for i := 0; i < ic; i++ {
					epg[i] += g * x[i]
					if xl != nil {
						elg[i] += g * xl[i]
					}
					if xr != nil {
						erg[i] += g * xr[i]
					}
					gin[i] += g * ep[i]
					if ginL != nil {
						ginL[i] += g * el[i]
					}
					if ginR != nil {
						ginR[i] += g * er[i]
					}
				}
			}
		}
	}
}

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
		p.ZeroGrad()
	}
}

// refMLPTape is MLPBatchTape with readable fields.
type refMLPTape struct {
	rows                    int
	inputs, preAct, postAct [][]float64
	output                  []float64
}

// refMLPForward is the dense MLP.RecordBatch.
func refMLPForward(m *nn.MLP, xs []float64, rows int, a *nn.Arena[float64]) *refMLPTape {
	t := &refMLPTape{rows: rows}
	cur := xs
	last := len(m.Linears) - 1
	for i, lin := range m.Linears {
		t.inputs = append(t.inputs, cur)
		pre := lin.ForwardBatch(cur, rows, a)
		t.preAct = append(t.preAct, pre)
		if i == last {
			t.postAct = append(t.postAct, pre)
			cur = pre
			continue
		}
		act := m.Act.ForwardBatch(pre, a)
		t.postAct = append(t.postAct, act)
		if m.Norms[i] != nil {
			cur = m.Norms[i].ForwardBatch(act, rows, a)
		} else {
			cur = act
		}
	}
	t.output = cur
	return t
}

// refMLPBackward is MLP.BackwardBatch over dense layers only.
func refMLPBackward(m *nn.MLP, t *refMLPTape, gradOut []float64, a *nn.Arena[float64]) []float64 {
	grad := gradOut
	last := len(m.Linears) - 1
	for i := last; i >= 0; i-- {
		if i != last {
			if m.Norms[i] != nil {
				grad = m.Norms[i].BackwardBatch(t.postAct[i], grad, t.rows, a)
			}
			grad = m.Act.BackwardBatch(t.preAct[i], grad, a)
		}
		grad = refLinearBackwardBatch(m.Linears[i], t.inputs[i], grad, t.rows, a)
	}
	return grad
}

// refShard is one gradient shard: shadow networks and scratch.
type refShard struct {
	qmlp, head *nn.MLP
	conv       *treeconv.Stack
	params     []*nn.Param
	arena      nn.Arena[float64]
	builder    treeconv.BatchBuilder[float64]
	loss       float64
}

// refNet is the reference trainer: a private copy of a network's learned
// state, trained by the pre-change step.
type refNet struct {
	queryDim, planDim int
	qmlp, head        *nn.MLP
	conv              *treeconv.Stack
	params            []*nn.Param
	shards            []*refShard
	opt               refAdam
	mean, std         float64
}

// netState is a network's learned state as valuenet.Network.Save writes it.
type netState struct {
	mean, std float64
	values    [][]float64
	step      uint64
	m, v      [][]float64 // empty for a parameter never stepped
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
	var err error
	_, err = wire.ReadU32(&buf) // query dim
	must(err)
	_, err = wire.ReadU32(&buf) // plan dim
	must(err)
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
	queryDim, planDim := net.Dims()
	rng := rand.New(rand.NewSource(0)) // initial weights are overwritten below
	qSizes := append([]int{queryDim}, cfg.QueryLayers...)
	convSizes := append([]int{planDim + qSizes[len(qSizes)-1]}, cfg.TreeChannels...)
	headSizes := append(append([]int{convSizes[len(convSizes)-1]}, cfg.HeadLayers...), 1)
	r := &refNet{
		queryDim: queryDim,
		planDim:  planDim,
		qmlp:     nn.NewMLP(qSizes, cfg.UseLayerNorm, rng),
		conv:     treeconv.NewStack(convSizes, rng),
		head:     nn.NewMLP(headSizes, cfg.UseLayerNorm, rng),
		opt:      refAdam{LR: cfg.LearningRate, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8},
	}
	r.params = append(r.params, r.qmlp.Params()...)
	r.params = append(r.params, r.conv.Params()...)
	r.params = append(r.params, r.head.Params()...)

	st := readNetState(t, net)
	if len(st.values) != len(r.params) {
		t.Fatalf("network has %d parameters, reference %d", len(st.values), len(r.params))
	}
	r.mean, r.std = st.mean, st.std
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

func (r *refNet) shard(i int) *refShard {
	for len(r.shards) <= i {
		sh := &refShard{qmlp: r.qmlp.ShadowGrad(), conv: r.conv.ShadowGrad(), head: r.head.ShadowGrad()}
		sh.params = append(sh.params, sh.qmlp.Params()...)
		sh.params = append(sh.params, sh.conv.Params()...)
		sh.params = append(sh.params, sh.head.Params()...)
		r.shards = append(r.shards, sh)
	}
	return r.shards[i]
}

func (r *refNet) normalize(cost float64) float64 {
	return (math.Log1p(math.Max(cost, 0)) - r.mean) / r.std
}

// trainBatch is TrainBatch with the per-shard reduction loop followed by the
// single Adam step; shards run serially (the worker count never changed the
// result).
func (r *refNet) trainBatch(samples []valuenet.Sample) float64 {
	const shardSize = 8
	numShards := (len(samples) + shardSize - 1) / shardSize
	for i := 0; i < numShards; i++ {
		r.shard(i).run(r, samples[i*shardSize:min((i+1)*shardSize, len(samples))])
	}
	total := 0.0
	for i := 0; i < numShards; i++ {
		sh := r.shards[i]
		total += sh.loss
		for pi, p := range r.params {
			sg := sh.params[pi].Grad
			pg := p.Grad
			for j, g := range sg {
				pg[j] += g
				sg[j] = 0
			}
		}
	}
	r.opt.Step(r.params, len(samples))
	return total / float64(len(samples))
}

// run is trainShard.run with assemble's prologue inlined and a dense query
// tower.
func (sh *refShard) run(r *refNet, samples []valuenet.Sample) {
	sh.arena.Reset()
	a := &sh.arena
	rows := len(samples)

	var qVecs [][]float64
	qIndex := make([]int, rows)
	forests := make([][]*treeconv.Tree, rows)
	for s, smp := range samples {
		forests[s] = smp.Plan
		q := smp.Query
		idx := -1
		for u, uq := range qVecs {
			if len(uq) == len(q) && (len(q) == 0 || &uq[0] == &q[0]) {
				idx = u
				break
			}
		}
		if idx < 0 {
			idx = len(qVecs)
			qVecs = append(qVecs, q)
		}
		qIndex[s] = idx
	}
	var qFlat []float64
	for _, q := range qVecs {
		qFlat = append(qFlat, q...)
	}
	qt := refMLPForward(sh.qmlp, qFlat, len(qVecs), a)
	g := qt.output
	qOut := len(g) / len(qVecs)
	channels := r.planDim + qOut
	batch := sh.builder.Build(forests, channels, func(sample int, node *treeconv.Tree, row []float64) {
		copy(row, node.Data)
		copy(row[r.planDim:], g[qIndex[sample]*qOut:(qIndex[sample]+1)*qOut])
	})

	// Tree convolution forward, one layer at a time through the product's
	// (unchanged) kernels. The tape keeps each layer's activated output; the
	// activation's backward branches on the pre-activation's sign, which the
	// leaky rectifier (positive slope) passes through unchanged.
	ins := []*treeconv.Batch[float64]{batch}
	for _, l := range sh.conv.Layers {
		one := &treeconv.Stack{Layers: []*treeconv.Layer{l}}
		var tape treeconv.StackBatchTape
		one.RecordBatch(&tape, ins[len(ins)-1], a)
		ins = append(ins, tape.Output())
	}
	convOut := ins[len(ins)-1]
	pooled, argmax := treeconv.PoolForwardBatch(convOut, a, nil)
	ht := refMLPForward(sh.head, pooled, rows, a)

	gradOut := a.Alloc(rows)
	loss := 0.0
	for i, smp := range samples {
		l, grad := nn.L2Loss(ht.output[i], r.normalize(smp.Target))
		loss += l
		gradOut[i] = grad
	}
	sh.loss = loss

	gradPooled := refMLPBackward(sh.head, ht, gradOut, a)
	grad := treeconv.PoolBackwardBatch(convOut, argmax, gradPooled, a)
	for li := len(sh.conv.Layers) - 1; li >= 0; li-- {
		l := sh.conv.Layers[li]
		in, out := ins[li], ins[li+1]
		gradPre := a.Alloc(len(out.Data))
		alpha := l.Act.Alpha
		for i, v := range out.Data {
			if v >= 0 {
				gradPre[i] = grad[i]
			} else {
				gradPre[i] = alpha * grad[i]
			}
		}
		gradIn := a.Alloc(in.N * l.InChannels)
		for i := range gradIn {
			gradIn[i] = 0
		}
		refBackwardBatchNodes(l, in, gradPre, gradIn)
		grad = gradIn
	}

	qGrad := a.Alloc(len(qVecs) * qOut)
	for i := range qGrad {
		qGrad[i] = 0
	}
	for node := 0; node < batch.N; node++ {
		dst := qGrad[qIndex[batch.Sample[node]]*qOut:]
		row := grad[node*channels+r.planDim : (node+1)*channels]
		for j, v := range row {
			dst[j] += v
		}
	}
	refMLPBackward(sh.qmlp, qt, qGrad, a)
}

// train is valuenet.Network.Train over trainBatch.
func (r *refNet) train(samples []valuenet.Sample, epochs, batchSize int, rng *rand.Rand) float64 {
	costs := make([]float64, len(samples))
	for i, s := range samples {
		costs[i] = s.Target
	}
	fit := valuenet.New(1, 1, valuenet.Config{}) // only for its (unchanged) target-transform fit
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

// requireSameState fails unless the product network and the reference hold
// == weights, target transform, Adam step and moments.
func requireSameState(t *testing.T, when string, net *valuenet.Network, ref *refNet) {
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
			if got[j] != want[j] {
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

// oracleSamples builds the synthetic fixture: 761-wide query rows at 0 %,
// ~5 % and 100 % density (one all-zero, several with explicit -0.0 entries),
// most shared by several samples, over forests of leaves, joins and one-child
// nodes.
func oracleSamples(rng *rand.Rand, queryDim, planDim, count int) []valuenet.Sample {
	negZero := math.Copysign(0, -1)
	var queries [][]float64
	for qi := 0; qi < 9; qi++ {
		q := make([]float64, queryDim)
		switch {
		case qi == 0: // all zero
		case qi == 1: // dense
			for i := range q {
				q[i] = rng.NormFloat64()
			}
		default: // ~5 % non-zero, the shape of a real query encoding
			for i := range q {
				if rng.Float64() < 0.05 {
					q[i] = rng.NormFloat64()
				}
			}
		}
		if qi%2 == 0 {
			for k := 0; k < 12; k++ {
				if i := rng.Intn(queryDim); q[i] == 0 {
					q[i] = negZero
				}
			}
		}
		queries = append(queries, q)
	}
	vec := func() []float64 {
		v := make([]float64, planDim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	var tree func(depth int) *treeconv.Tree
	tree = func(depth int) *treeconv.Tree {
		if depth == 0 || rng.Intn(4) == 0 {
			return treeconv.NewLeaf(vec())
		}
		switch rng.Intn(5) {
		case 0:
			return treeconv.NewNode(vec(), tree(depth-1), nil)
		case 1:
			return treeconv.NewNode(vec(), nil, tree(depth-1))
		default:
			return treeconv.NewNode(vec(), tree(depth-1), tree(depth-1))
		}
	}
	samples := make([]valuenet.Sample, count)
	for i := range samples {
		forest := []*treeconv.Tree{tree(4)}
		for rng.Intn(3) == 0 {
			forest = append(forest, tree(2))
		}
		samples[i] = valuenet.Sample{
			Query:  queries[rng.Intn(len(queries))],
			Plan:   forest,
			Target: math.Exp(rng.Float64() * 8),
		}
	}
	return samples
}

// TestTrainingMatchesParentKernelsSynthetic: 24 gradient steps over ragged
// minibatches of the synthetic fixture leave the product network — for 1, 2
// and 4 gradient workers — in exactly the reference's state. The widths are
// chosen off the kernels' blocking: an input layer 761→7, tree-convolution
// layers 55→7→6 (odd fan-in, channel counts that are not multiples of four).
func TestTrainingMatchesParentKernelsSynthetic(t *testing.T) {
	const queryDim, planDim = 761, 49
	for _, workers := range []int{1, 2, 4} {
		setProcs(t, workers)
		cfg := valuenet.Config{
			QueryLayers:  []int{7, 6},
			TreeChannels: []int{7, 6},
			HeadLayers:   []int{5},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         11,
		}
		net := valuenet.New(queryDim, planDim, cfg)
		net.FitTargetTransform([]float64{3, 40, 900, 12000})
		ref := newRefNet(t, net)
		samples := oracleSamples(rand.New(rand.NewSource(5)), queryDim, planDim, 61)
		for step := 0; step < 24; step++ {
			lo := (step * 13) % len(samples)
			batch := samples[lo:min(lo+29, len(samples))]
			got, want := net.TrainBatch(batch), ref.trainBatch(batch)
			if got != want {
				t.Fatalf("workers=%d step %d: loss %v, reference %v", workers, step, got, want)
			}
		}
		requireSameState(t, "after 24 steps", net, ref)
		if ref.opt.step != 24 {
			t.Fatalf("reference took %d steps, want 24", ref.opt.step)
		}
	}
}

// TestRetrainMatchesParentKernels: on the real training samples of a
// bootstrapped system — real query encodings, real construction states —
// two retraining rounds (new experience between them) leave the live network
// in exactly the state the reference reaches from the same samples and the
// same random stream, for 1, 2 and 4 gradient workers.
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
			samples := n.trainingSamples()
			if n.Config.MaxTrainSamples > 0 && len(samples) > n.Config.MaxTrainSamples {
				t.Fatalf("%d samples exceed MaxTrainSamples: the reference round would need Retrain's shuffle too", len(samples))
			}
			// The reference draws from a twin of the training stream.
			twin := newCountingSource(n.rngSeed)
			twin.skip(n.rngSrc.draws)

			got := n.Retrain()
			want := ref.train(samples, n.Config.TrainEpochs, n.Config.BatchSize, rand.New(twin))
			if got != want {
				t.Fatalf("workers=%d round %d: loss %v, reference %v", workers, round, got, want)
			}
			requireSameState(t, "after a retraining round", n.Net, ref)
			steps += n.Config.TrainEpochs * ((len(samples) + n.Config.BatchSize - 1) / n.Config.BatchSize)
		}
		if steps < 20 {
			t.Fatalf("only %d gradient steps compared, want at least 20", steps)
		}
	}
}

// TestRetrainLiveColumnsMatchFullWalk: the optimizer steps only the query
// tower's input columns that some training encoding has had a non-zero in,
// where the reference's Adam walks every element. On real encodings, three
// retraining rounds must leave the network == to the reference (a) when
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
				queryDim, planDim := n.Net.Dims()
				restored := valuenet.New(queryDim, planDim, n.Net.Config())
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
			samples := n.trainingSamples()
			twin := newCountingSource(n.rngSeed)
			twin.skip(n.rngSrc.draws)

			got := n.Retrain()
			want := ref.train(samples, n.Config.TrainEpochs, n.Config.BatchSize, rand.New(twin))
			if got != want {
				t.Fatalf("workers=%d round %d: loss %v, reference %v", workers, round, got, want)
			}
			requireSameState(t, "after a round with a new query column", n.Net, ref)
		}
	}
}

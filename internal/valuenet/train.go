// Batched training. TrainBatchPerSample (the original path) runs a full
// forward/backward tape per example; TrainBatch — the path Train and Neo's
// retraining loop use — mirrors the batched inference pipeline end-to-end:
//
//   - samples are partitioned into fixed-size gradient shards (the partition
//     depends only on the minibatch size, never on the worker count),
//   - each shard runs ONE shared forward+backward pass: the query tower runs
//     once per distinct query vector, spatial replication writes straight
//     into a flattened forest batch, tree convolution / dynamic pooling /
//     the head run over flat arrays with all scratch drawn from a per-shard
//     arena,
//   - each shard accumulates gradients into shadow parameters (shared
//     weights, private gradient buffers), and the shard gradients are
//     reduced into the live network in deterministic shard order before the
//     single Adam step.
//
// Because the shard partition and the reduction order are fixed, training is
// bit-identical for any Config.TrainWorkers value — the workers only buy
// wall-clock time. Relative to the per-sample path the batched pass performs
// the same per-element gradient accumulation in the same order everywhere
// except the deduplicated query tower, so the two paths agree to ~1e-9 per
// step (and exactly in every test to date except the query MLP's gradients,
// which differ only in floating-point association).
package valuenet

import (
	"sync"
	"sync/atomic"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// trainShardSize is the number of samples per gradient shard. It is a fixed
// constant so the shard partition — and with it the gradient-reduction tree
// — depends only on the minibatch size, keeping training results invariant
// under the worker count.
const trainShardSize = 8

// trainShard holds one gradient worker's private state: shadow networks
// sharing the live weights with private gradient buffers, plus all reusable
// scratch for the shard's batched forward/backward pass.
type trainShard struct {
	qmlp *nn.MLP
	conv *treeconv.Stack
	head *nn.MLP
	// params lists the shadow parameters in the same order as
	// Network.Params, so reduction can walk the two aligned slices.
	params []*nn.Param

	arena nn.Arena[float64]
	assembly[float64]
	queries [][]float64
	forests [][]*treeconv.Tree
	argmax  []int
	loss    float64
}

// trainer owns the per-shard training state, grown on demand. It lives on
// the Network and is reused across TrainBatch calls; training is
// single-caller by contract (Neo serializes retraining rounds), so no
// locking is needed.
type trainer struct {
	shards []*trainShard
}

func (n *Network) shard(i int) *trainShard {
	if n.train == nil {
		n.train = &trainer{}
	}
	for len(n.train.shards) <= i {
		sh := &trainShard{
			qmlp: n.qmlp.ShadowGrad(),
			conv: n.conv.ShadowGrad(),
			head: n.head.ShadowGrad(),
		}
		sh.params = append(sh.params, sh.qmlp.Params()...)
		sh.params = append(sh.params, sh.conv.Params()...)
		sh.params = append(sh.params, sh.head.Params()...)
		n.train.shards = append(n.train.shards, sh)
	}
	return n.train.shards[i]
}

// TrainBatch performs one gradient step on a batch of samples using the
// batched pipeline described in the package comment and returns the mean L2
// loss (in normalised space). Results are bit-identical for any
// Config.TrainWorkers value; relative to TrainBatchPerSample they agree to
// floating-point association (~1e-9).
func (n *Network) TrainBatch(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	numShards := (len(samples) + trainShardSize - 1) / trainShardSize
	for i := 0; i < numShards; i++ {
		n.shard(i) // pre-grow so workers never mutate the shard slice
	}
	workers := n.cfg.TrainWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > numShards {
		workers = numShards
	}
	shardSamples := func(i int) []Sample {
		lo := i * trainShardSize
		hi := lo + trainShardSize
		if hi > len(samples) {
			hi = len(samples)
		}
		return samples[lo:hi]
	}
	if workers == 1 {
		for i := 0; i < numShards; i++ {
			n.train.shards[i].run(n, shardSamples(i))
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= numShards {
						return
					}
					n.train.shards[i].run(n, shardSamples(i))
				}
			}()
		}
		wg.Wait()
	}
	// Reduce shard gradients into the live parameters in shard order — the
	// fixed reduction order that keeps training worker-count invariant —
	// and clear the shadow buffers for the next step.
	params := n.Params()
	total := 0.0
	for i := 0; i < numShards; i++ {
		sh := n.train.shards[i]
		total += sh.loss
		for pi, p := range params {
			sg := sh.params[pi].Grad
			pg := p.Grad
			for j, g := range sg {
				pg[j] += g
				sg[j] = 0
			}
		}
	}
	n.opt.Step(params, len(samples))
	return total / float64(len(samples))
}

// run executes one shard's shared forward+backward pass, leaving the
// shard's gradient contribution in its shadow parameters and the summed L2
// loss in sh.loss.
func (sh *trainShard) run(n *Network, samples []Sample) {
	sh.arena.Reset()
	a := &sh.arena
	rows := len(samples)

	sh.queries, sh.forests = sh.queries[:0], sh.forests[:0]
	for _, smp := range samples {
		sh.queries = append(sh.queries, smp.Query)
		sh.forests = append(sh.forests, smp.Plan)
	}
	// The prologue shared with inference (assemble), with a taped query tower.
	var qt *nn.MLPBatchTape
	batch := sh.assemble(n, sh.queries, sh.forests, func(qFlat []float64, distinct int) []float64 {
		qt = sh.qmlp.ForwardBatchTape(qFlat, distinct, a)
		return qt.Output()
	})
	channels := batch.Channels
	qOut := channels - n.planDim

	ct := sh.conv.ForwardBatchTape(batch, a)
	convOut := ct.Output()
	pooled, argmax := treeconv.PoolBatchArgmax(convOut, a, sh.argmax)
	sh.argmax = argmax
	ht := sh.head.ForwardBatchTape(pooled, rows, a)
	out := ht.Output()

	gradOut := a.Alloc(rows)
	loss := 0.0
	for i, smp := range samples {
		l, grad := nn.L2Loss(out[i], n.normalize(smp.Target))
		loss += l
		gradOut[i] = grad
	}
	sh.loss = loss

	gradPooled := sh.head.BackwardBatch(ht, gradOut, a)
	gradNodes := treeconv.PoolBackwardBatch(convOut, sh.argmax, gradPooled, a)
	gradAug := sh.conv.BackwardBatch(ct, gradNodes, a)

	// Split the augmented-node gradients: the plan-feature part is an input
	// (no gradient consumer); the query part accumulates per distinct query
	// in flattened node order — sample-major, the per-sample walk order.
	qGrad := a.Alloc(len(sh.qVecs) * qOut)
	for i := range qGrad {
		qGrad[i] = 0
	}
	for node := 0; node < batch.N; node++ {
		dst := qGrad[sh.qIndex[batch.Sample[node]]*qOut:]
		row := gradAug[node*channels+n.planDim : (node+1)*channels]
		for j, v := range row {
			dst[j] += v
		}
	}
	sh.qmlp.BackwardBatch(qt, qGrad, a)
}

// Batched training. TrainBatchPerSample (the original path) runs a full
// forward/backward tape per example; TrainBatch — the path Train and Neo's
// retraining loop use — runs a whole minibatch through flat arrays:
//
//   - samples are partitioned into fixed-size gradient shards (the partition
//     depends only on the minibatch size, never on the worker count),
//   - each shard runs ONE shared forward+backward pass: the query tower runs
//     once per distinct query vector, as an input layer (its first layer
//     visits only the encoding's non-zeros and computes no input gradient,
//     see nn.MLP.RecordInput); spatial replication writes straight into a
//     flattened forest batch; tree convolution / dynamic pooling / the head
//     run over flat arrays with all scratch drawn from a per-shard arena and
//     the tapes' headers reused from step to step,
//   - each shard accumulates gradients into shadow parameters (shared
//     weights, private gradient buffers), and one optimizer pass
//     (nn.Adam.StepShards) sums every element's shard gradients in shard
//     order, applies the Adam update and clears all buffers — of the query
//     tower's input layer, only the columns some shard's input has ever had
//     a non-zero in (marked after the shards finish, so no shard writes
//     shared state).
//
// Because the shard partition and the reduction order are fixed and the
// optimizer pass treats every element independently, training is
// bit-identical for any worker count — TrainBatch sizes its pool from
// GOMAXPROCS, and the workers only buy wall-clock time. Relative to the
// per-sample path the batched pass performs the same per-element gradient
// accumulation in the same order everywhere except the deduplicated query
// tower, so the two paths agree to ~1e-9 per step (and exactly in every
// test to date except the query MLP's gradients, which differ only in
// floating-point association).
package valuenet

import (
	"runtime"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// trainShardSize is the number of samples per gradient shard. It is a fixed
// constant so the shard partition — and with it the gradient-reduction tree
// — depends only on the minibatch size, keeping training results invariant
// under the worker count.
const trainShardSize = 8

// assembly is the reusable state of a shard's forward prologue (see
// assemble).
type assembly[T nn.Float] struct {
	builder treeconv.BatchBuilder[T]
	qVecs   [][]float64 // distinct query vectors, in first-seen order
	qIndex  []int       // sample -> index into qVecs
	qFlat   []T         // flattened distinct query vectors
}

// assemble deduplicates the batch's query vectors, runs the query tower over
// the distinct ones (tower maps len(qVecs)×queryDim values to len(qVecs)×qOut
// embeddings) and spatially replicates the embeddings straight into the
// flattened forest batch: each node row is the node's plan vector followed by
// its sample's query embedding.
//
// Experience samples of the same query share one encoding slice, so
// deduplicating by slice identity (sameSlice) runs the query tower once per
// distinct query.
func (as *assembly[T]) assemble(n *Network, queries [][]float64, forests [][]*treeconv.Tree, tower func(qFlat []T, distinct int) []T) *treeconv.Batch[T] {
	as.qVecs = as.qVecs[:0]
	as.qIndex = resize(as.qIndex, len(queries))
	for s, q := range queries {
		idx := -1
		for u, uq := range as.qVecs {
			if sameSlice(uq, q) {
				idx = u
				break
			}
		}
		if idx < 0 {
			idx = len(as.qVecs)
			as.qVecs = append(as.qVecs, q)
		}
		as.qIndex[s] = idx
	}
	as.qFlat = as.qFlat[:0]
	for _, q := range as.qVecs {
		if len(q) != n.queryDim {
			panic("valuenet: query vector dimension mismatch")
		}
		for _, v := range q {
			as.qFlat = append(as.qFlat, T(v))
		}
	}
	g := tower(as.qFlat, len(as.qVecs))
	qOut := len(g) / len(as.qVecs)

	return as.builder.Build(forests, n.planDim+qOut, func(sample int, node *treeconv.Tree, row []T) {
		if len(node.Data) != n.planDim {
			panic("valuenet: plan vector dimension mismatch")
		}
		for i, v := range node.Data {
			row[i] = T(v)
		}
		copy(row[n.planDim:], g[as.qIndex[sample]*qOut:(as.qIndex[sample]+1)*qOut])
	})
}

// trainShard holds one gradient worker's private state: shadow networks
// sharing the live weights with private gradient buffers, plus all reusable
// scratch for the shard's batched forward/backward pass.
type trainShard struct {
	qmlp *nn.MLP
	conv *treeconv.Stack
	head *nn.MLP

	arena nn.Arena[float64]
	assembly[float64]
	queryTape nn.MLPBatchTape
	convTape  treeconv.StackBatchTape
	headTape  nn.MLPBatchTape
	queries   [][]float64
	forests   [][]*treeconv.Tree
	argmax    []int
	loss      float64
}

// trainer owns the per-shard training state, grown on demand. It lives on
// the Network and is reused across TrainBatch calls; training is
// single-caller by contract (Neo serializes retraining rounds), so no
// locking is needed.
type trainer struct {
	// params is Network.Params(), and shadows[i] shard i's shadow parameters
	// in the same order, so the optimizer pass can walk aligned slices.
	params  []*nn.Param
	shadows [][]*nn.Param
	shards  []*trainShard
}

// growShards makes sure shards 0..num-1 exist.
func (n *Network) growShards(num int) {
	if n.train == nil {
		n.train = &trainer{params: n.Params()}
	}
	for len(n.train.shards) < num {
		sh := &trainShard{
			qmlp: n.qmlp.ShadowGrad(),
			conv: n.conv.ShadowGrad(),
			head: n.head.ShadowGrad(),
		}
		var shadow []*nn.Param
		shadow = append(shadow, sh.qmlp.Params()...)
		shadow = append(shadow, sh.conv.Params()...)
		shadow = append(shadow, sh.head.Params()...)
		n.train.shards = append(n.train.shards, sh)
		n.train.shadows = append(n.train.shadows, shadow)
	}
}

// TrainBatch performs one gradient step on a batch of samples using the
// batched pipeline described in the package comment and returns the mean L2
// loss (in normalised space). Results are bit-identical for any GOMAXPROCS;
// relative to TrainBatchPerSample they agree to floating-point association
// (~1e-9).
func (n *Network) TrainBatch(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	numShards := (len(samples) + trainShardSize - 1) / trainShardSize
	n.growShards(numShards) // up front, so workers never mutate the shard slice
	workers := runtime.GOMAXPROCS(0)
	nn.Parallel(workers, numShards, func(i int) {
		lo := i * trainShardSize
		n.train.shards[i].run(n, samples[lo:min(lo+trainShardSize, len(samples))])
	})
	total := 0.0
	for _, sh := range n.train.shards[:numShards] {
		total += sh.loss
		n.opt.MarkColumns(n.queryInput(), sh.queryTape.InputColumns())
	}
	n.opt.StepShards(n.train.params, n.train.shadows[:numShards], len(samples), workers)
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
	// The prologue, with a taped query tower reading the deduplicated
	// encodings as an input layer.
	batch := sh.assemble(n, sh.queries, sh.forests, func(qFlat []float64, distinct int) []float64 {
		sh.qmlp.RecordInput(&sh.queryTape, qFlat, distinct, a)
		return sh.queryTape.Output()
	})
	channels := batch.Channels
	qOut := channels - n.planDim

	sh.conv.RecordBatch(&sh.convTape, batch, a)
	convOut := sh.convTape.Output()
	pooled, argmax := treeconv.PoolForwardBatch(convOut, a, sh.argmax)
	sh.argmax = argmax
	sh.head.RecordBatch(&sh.headTape, pooled, rows, a)
	out := sh.headTape.Output()

	gradOut := a.Alloc(rows)
	loss := 0.0
	for i, smp := range samples {
		l, grad := nn.L2Loss(out[i], n.normalize(smp.Target))
		loss += l
		gradOut[i] = grad
	}
	sh.loss = loss

	gradPooled := sh.head.BackwardBatch(&sh.headTape, gradOut, a)
	gradNodes := treeconv.PoolBackwardBatch(convOut, sh.argmax, gradPooled, a)
	gradAug := sh.conv.BackwardBatch(&sh.convTape, gradNodes, a)

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
	sh.qmlp.BackwardBatch(&sh.queryTape, qGrad, a)
}

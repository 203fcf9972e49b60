// Batched training. TrainBatchPerSample (the original path) runs a full
// forward/backward tape per example; TrainBatch — the path Train and Neo's
// retraining loop use — runs a whole minibatch through flat arrays:
//
//   - samples are partitioned into fixed-size gradient shards (the partition
//     depends only on the minibatch size, never on the worker count),
//   - each shard runs ONE shared forward+backward pass: the query tower runs
//     once per distinct query vector, as an input layer (its first layer
//     visits only the encoding's non-zeros and computes no input gradient,
//     see nn.MLP.RecordInput); the shard's samples' roots go into a
//     treeconv.Subtrees table, one entry per distinct (subtree, query), and
//     spatial replication writes one row per entry; tree convolution runs
//     over those rows, dynamic pooling folds each subtree's maximum once, and
//     the head runs over one row per sample, all scratch drawn from a
//     per-shard arena and the tapes' headers reused from step to step,
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
// accumulation in the same order everywhere except where it sums before
// backpropagating: the deduplicated query tower, and a subtree shared inside
// a shard, whose one row backpropagates the sum of its uses' gradients. So
// the two paths agree to ~1e-9 per step, and exactly apart from those sums'
// floating-point association.
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

// trainShard holds one gradient worker's private state: shadow networks
// sharing the live weights with private gradient buffers, plus all reusable
// scratch for the shard's batched forward/backward pass.
type trainShard struct {
	qmlp *nn.MLP
	conv *treeconv.Stack
	head *nn.MLP

	arena     nn.Arena[float64]
	qVecs     [][]float64 // distinct query vectors, in first-seen order
	qIndex    []int       // sample -> index into qVecs
	qFlat     []float64   // flattened distinct query vectors
	tab       treeconv.Subtrees
	roots     []int32   // every sample's non-nil roots' entries, in order
	forests   [][]int32 // per sample: its window of roots
	queryTape nn.MLPBatchTape
	convTape  treeconv.StackBatchTape
	poolTape  treeconv.PoolBatchTape
	headTape  nn.MLPBatchTape
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

// assemble is the shard's forward prologue. It deduplicates the samples'
// query vectors and runs the taped query tower over the distinct ones, as an
// input layer; interns every sample's roots in the shard's subtree table
// under the sample's distinct-query index; and spatially replicates the
// embeddings into one row per table entry: the entry's plan vector followed
// by its group's query embedding. It returns the rows and the embedding
// width.
//
// Experience samples of the same query share one encoding slice, so
// deduplicating by slice identity (sameSlice) runs the query tower once per
// distinct query.
func (sh *trainShard) assemble(n *Network, samples []Sample) (rows []float64, qOut int) {
	sh.qVecs, sh.qFlat = sh.qVecs[:0], sh.qFlat[:0]
	sh.qIndex = resize(sh.qIndex, len(samples))
	for s, smp := range samples {
		idx := -1
		for u, uq := range sh.qVecs {
			if sameSlice(uq, smp.Query) {
				idx = u
				break
			}
		}
		if idx < 0 {
			if len(smp.Query) != n.queryDim {
				panic("valuenet: query vector dimension mismatch")
			}
			idx = len(sh.qVecs)
			sh.qVecs = append(sh.qVecs, smp.Query)
			sh.qFlat = append(sh.qFlat, smp.Query...)
		}
		sh.qIndex[s] = idx
	}
	sh.qmlp.RecordInput(&sh.queryTape, sh.qFlat, len(sh.qVecs), &sh.arena)
	g := sh.queryTape.Output()
	qOut = len(g) / len(sh.qVecs)

	sh.tab.Reset()
	sh.roots, sh.forests = sh.roots[:0], sh.forests[:0]
	for s, smp := range samples {
		start := len(sh.roots)
		for _, t := range smp.Plan {
			if t != nil {
				sh.roots = append(sh.roots, sh.tab.Add(t, int32(sh.qIndex[s])))
			}
		}
		// A window keeps its values when a later append moves roots.
		sh.forests = append(sh.forests, sh.roots[start:])
	}

	channels := n.planDim + qOut
	rows = sh.arena.Alloc(sh.tab.Len() * channels)
	for e, t := range sh.tab.Tree {
		if len(t.Data) != n.planDim {
			panic("valuenet: plan vector dimension mismatch")
		}
		row := rows[e*channels : (e+1)*channels]
		copy(row, t.Data)
		group := int(sh.tab.Group[e])
		copy(row[n.planDim:], g[group*qOut:(group+1)*qOut])
	}
	return rows, qOut
}

// run executes one shard's shared forward+backward pass, leaving the
// shard's gradient contribution in its shadow parameters and the summed L2
// loss in sh.loss.
func (sh *trainShard) run(n *Network, samples []Sample) {
	sh.arena.Reset()
	a := &sh.arena
	rows := len(samples)

	in, qOut := sh.assemble(n, samples)
	channels := n.planDim + qOut
	sh.conv.RecordBatch(&sh.convTape, &sh.tab, in, a)
	dim := sh.conv.Layers[len(sh.conv.Layers)-1].OutChannels
	pooled := sh.poolTape.Forward(&sh.tab, sh.convTape.Output(), dim, sh.forests, a)
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
	gradRows := sh.poolTape.Backward(gradPooled, a)
	gradAug := sh.conv.BackwardBatch(&sh.convTape, gradRows, a)

	// Split the augmented-row gradients: the plan-feature part is an input
	// (no gradient consumer); the query part accumulates per distinct query
	// in the table's first-visit pre-order — sample-major, the per-sample
	// walk order.
	qGrad := a.Alloc(len(sh.qVecs) * qOut)
	for i := range qGrad {
		qGrad[i] = 0
	}
	for _, e := range sh.tab.Pre {
		dst := qGrad[int(sh.tab.Group[e])*qOut:]
		row := gradAug[int(e)*channels+n.planDim : int(e+1)*channels]
		for j, v := range row {
			dst[j] += v
		}
	}
	sh.qmlp.BackwardBatch(&sh.queryTape, qGrad, a)
}

// Batched inference. Predict runs one (query, forest) pair through the
// network; PredictBatch runs a whole slice of unrelated pairs through one
// shared forward pass built on the batch primitives of nn and treeconv:
//
//   - the query-level MLP runs once per *distinct* query vector of the call
//     (pairs of one query share its tower pass within a call, not across
//     calls — a plan search, which scores thousands of forests of one query
//     over hundreds of calls, goes through Scorer instead: scorer.go),
//   - spatial replication writes every augmented node vector straight into a
//     flattened forest batch (no per-node tree copies),
//   - tree convolution and dynamic pooling run over the flattened batch, and
//   - the head MLP maps all pooled vectors to predictions in one call.
//
// The first two steps are the assemble prologue, written once and shared by
// the float64 pass below, the float32 pass (precision.go) and the training
// pass (train.go); only the kernels that run on either side of it differ.
//
// All intermediate storage comes from a pooled scratch arena, so steady-state
// batched inference is allocation-free apart from the returned slice, and
// PredictBatch is safe for concurrent use (inference only reads the weights).
package valuenet

import (
	"slices"
	"sync"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// assembly is the reusable state of the prologue every batched pass starts
// with (see assemble).
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
// its sample's query embedding. Converting to T is the float64→float32
// input-encode boundary of reduced-precision scoring.
//
// Query vectors are deduplicated by slice identity: plan search scores many
// candidate plans of one query, and experience samples of the same query
// share one encoding slice, so the query tower runs once per distinct query.
// Distinctness is decided on the slice header (pointer + length), which is
// exact for cached encodings and merely conservative otherwise.
func (as *assembly[T]) assemble(n *Network, queries [][]float64, forests [][]*treeconv.Tree, tower func(qFlat []T, distinct int) []T) *treeconv.Batch[T] {
	as.qVecs = as.qVecs[:0]
	as.qIndex = slices.Grow(as.qIndex[:0], len(queries))[:len(queries)]
	for s, q := range queries {
		idx := -1
		for u, uq := range as.qVecs {
			if len(uq) == len(q) && (len(q) == 0 || &uq[0] == &q[0]) {
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

// batchScratch is the per-call reusable state of a batched inference pass.
type batchScratch[T nn.Float] struct {
	conv treeconv.BatchScratch[T]
	assembly[T]
}

var scratchPool = sync.Pool{New: func() interface{} { return &batchScratch[float64]{} }}

// PredictBatch returns the network's cost predictions (in the original cost
// domain) for a slice of encoded (query, plan-forest) pairs, evaluated in one
// shared forward pass. It is equivalent to calling Predict per pair but
// amortises the query tower, tree convolution and head across the batch.
// Safe for concurrent use by multiple goroutines.
func (n *Network) PredictBatch(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	out := n.PredictBatchNormalized(queries, forests)
	for i, v := range out {
		out[i] = n.denormalize(v)
	}
	return out
}

// PredictBatchNormalized is PredictBatch in normalised log-cost space (the
// batched analogue of PredictNormalized).
func (n *Network) PredictBatchNormalized(queries [][]float64, forests [][]*treeconv.Tree) []float64 {
	if len(queries) != len(forests) {
		panic("valuenet: PredictBatch queries/forests length mismatch")
	}
	rows := len(queries)
	if rows == 0 {
		return nil
	}
	st := scratchPool.Get().(*batchScratch[float64])
	defer func() {
		st.conv.Reset()
		scratchPool.Put(st)
	}()
	arena := &st.conv.Arena

	batch := st.assemble(n, queries, forests, func(qFlat []float64, distinct int) []float64 {
		return n.qmlp.ForwardBatch(qFlat, distinct, arena)
	})
	conv := n.conv.ForwardBatch(batch, &st.conv)
	pooled := treeconv.PoolBatch(conv, arena)
	head := n.head.ForwardBatch(pooled, rows, arena)

	out := make([]float64, rows)
	copy(out, head)
	return out
}

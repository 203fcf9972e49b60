// Scoring. A Scorer is the network's one inference pass at either
// precision; Snapshot.PredictBatch is a loop over scorers, one per distinct
// query. A plan search hands one scorer thousands of forests of one query
// that differ from each other by a node or two — a child plan is its parent
// plus one join or one scan choice — and tree convolution only looks down: a
// node's output at layer k is a function of its own row and its children's
// outputs at layer k−1. The query embedding that spatial replication appends
// to every row is constant within a search, so a subtree's activations, and
// the per-channel maximum dynamic pooling takes over it, are the same in
// every plan that contains it.
//
// A Scorer runs the query tower once, when it is created, and keeps one
// record per distinct subtree it has been shown, holding exactly what the
// rest of the pass reads of that subtree:
//
//   - its root's activation after every convolution layer but the last —
//     the row its parent's next layer gathers as a child operand, and
//   - the per-channel maximum of the last layer over the whole subtree —
//     what dynamic pooling contributes for it.
//
// Subtrees are keyed by *treeconv.Tree: feature.PlanEncoder returns one tree
// per structural hash within a search, so pointer identity is structural
// identity there, and for trees that merely look alike it is conservative.
// Score convolves the nodes it has no record of — one row per layer each,
// through treeconv's row kernels — folds pool(node) = max(own, pool(left),
// pool(right)), takes each forest's maximum over its roots' pools and runs
// the head once per forest. Every record is kept; the memo is garbage when
// the search drops its scorer.
//
// A score does not depend on what the memo holds: a node's row goes through
// the same kernel on the same operands whichever call convolves it, and a
// row's result does not depend on the rows beside it (treeconv/rows.go); the
// maxima are folded with a v > cur comparison from −Inf in pre-order —
// DynamicPool's order — so ties between signed zeros and NaN operands resolve
// alike whether a subtree's maximum was recorded earlier or is folded now;
// and the head's kernels treat rows independently. At float64 the kernels
// are those of the per-sample reference (Network.Predict), so on finite
// activations the scores are == to it.
package valuenet

import (
	"math"
	"slices"

	"neo/internal/nn"
	"neo/internal/treeconv"
)

// recordChunk is the number of subtree records per slab chunk. The slab
// grows by whole chunks that are never moved: doubling a search's largest
// allocation to add a record costs more than the records do.
const recordChunk = 64

// Scorer scores forests of one query against one snapshot, remembering every
// subtree it has convolved. It belongs to one search: not safe for
// concurrent use, and the trees it is shown must not be modified.
type Scorer struct {
	net *Network // the target transform
	f64 *scorer[float64]
	f32 *scorer[float32] // set instead of f64 on a float32 snapshot
}

// ScorerStats counts a scorer's work since it was created.
type ScorerStats struct {
	// Plans is the number of forests scored.
	Plans int
	// Nodes is the number of tree nodes those forests hold — what scoring
	// them from scratch would have convolved.
	Nodes int
	// Computed is the number of nodes actually convolved: the distinct
	// subtrees seen. 1 − Computed/Nodes is the memo's hit share.
	Computed int
}

// NewScorer runs the query tower over queryVec and returns an empty scorer
// for forests of that query.
func (s *Snapshot) NewScorer(queryVec []float64) *Scorer {
	if s.f32 != nil {
		return &Scorer{net: s.net, f32: newScorer(s.net, queryVec, s.f32.qmlp.ForwardBatch, s.f32.conv.ForwardRows, s.f32.head.ForwardBatch)}
	}
	return &Scorer{net: s.net, f64: newScorer(s.net, queryVec, s.net.qmlp.ForwardBatch, s.net.conv.ForwardRows, s.net.head.ForwardBatch)}
}

// Score returns the cost predictions (in the original cost domain) for the
// forests. A forest's score does not depend on what the memo held.
func (sc *Scorer) Score(forests [][]*treeconv.Tree) []float64 {
	out := sc.normalized(forests)
	for i, v := range out {
		out[i] = sc.net.denormalize(v)
	}
	return out
}

// normalized is Score in normalised log-cost space: the head's outputs.
func (sc *Scorer) normalized(forests [][]*treeconv.Tree) []float64 {
	if sc.f32 != nil {
		return sc.f32.score(forests)
	}
	return sc.f64.score(forests)
}

// Stats reports the work done so far.
func (sc *Scorer) Stats() ScorerStats {
	if sc.f32 != nil {
		return sc.f32.stats
	}
	return sc.f64.stats
}

// scorer is Scorer at one precision; the kernels of that precision are the
// three function values.
type scorer[T nn.Float] struct {
	net   *Network                                       // dimensions
	conv  func(layer int, leaf, full, out []T)           // treeconv row kernel
	head  func(pooled []T, rows int, a *nn.Arena[T]) []T // head MLP
	query []T                                            // the query tower's output
	width []int                                          // width[k]: output channels of conv layer k
	off   []int                                          // off[k]: where a record keeps layer k's slot
	recW  int                                            // values per record
	memo  map[*treeconv.Tree]int32                       // subtree → record
	slab  [][]T                                          // records, recordChunk to a chunk
	stats ScorerStats

	// Reused from call to call.
	roots      []int32 // record of every non-nil root of the call, in order
	leaf, full []miss  // nodes to convolve: childless, and with a child
	leafRows   []T
	fullRows   []T
	out        []T
	pooled     []T
	arena      nn.Arena[T]
}

// miss is a subtree met for the first time: its record and its children's
// (−1 for an absent child). Misses are listed children first.
type miss struct {
	t                *treeconv.Tree
	rec, left, right int32
}

func newScorer[T nn.Float](n *Network, queryVec []float64,
	tower func(xs []T, rows int, a *nn.Arena[T]) []T,
	conv func(layer int, leaf, full, out []T),
	head func(pooled []T, rows int, a *nn.Arena[T]) []T) *scorer[T] {
	if len(queryVec) != n.queryDim {
		panic("valuenet: query vector dimension mismatch")
	}
	s := &scorer[T]{net: n, conv: conv, head: head, memo: make(map[*treeconv.Tree]int32)}
	for _, l := range n.conv.Layers {
		s.off = append(s.off, s.recW)
		s.width = append(s.width, l.OutChannels)
		s.recW += l.OutChannels
	}
	q := make([]T, len(queryVec))
	for i, v := range queryVec {
		q[i] = T(v)
	}
	// The embedding outlives the arena's next Reset, so copy it out.
	s.query = append([]T(nil), tower(q, 1, &s.arena)...)
	s.arena.Reset()
	return s
}

// slot returns layer k's slot of record rec: the root's activation for every
// layer but the last, the subtree's pooled maximum for the last.
func (s *scorer[T]) slot(rec int32, k int) []T {
	base := int(rec)%recordChunk*s.recW + s.off[k]
	return s.slab[int(rec)/recordChunk][base : base+s.width[k]]
}

// resolve returns t's record, listing t and every subtree of it that has
// none yet as a miss.
func (s *scorer[T]) resolve(t *treeconv.Tree) int32 {
	if rec, ok := s.memo[t]; ok {
		return rec
	}
	m := miss{t: t, left: -1, right: -1}
	if t.Left != nil {
		m.left = s.resolve(t.Left)
	}
	if t.Right != nil {
		m.right = s.resolve(t.Right)
	}
	m.rec = int32(len(s.memo))
	if int(m.rec)%recordChunk == 0 {
		s.slab = append(s.slab, make([]T, recordChunk*s.recW))
	}
	s.memo[t] = m.rec
	if m.left < 0 && m.right < 0 {
		s.leaf = append(s.leaf, m)
	} else {
		s.full = append(s.full, m)
	}
	return m.rec
}

func (s *scorer[T]) score(forests [][]*treeconv.Tree) []float64 {
	if len(forests) == 0 {
		return nil
	}
	s.roots, s.leaf, s.full = s.roots[:0], s.leaf[:0], s.full[:0]
	for _, f := range forests {
		for _, t := range f {
			if t != nil {
				s.stats.Nodes += t.NumNodes()
				s.roots = append(s.roots, s.resolve(t))
			}
		}
	}
	s.stats.Plans += len(forests)
	s.stats.Computed += len(s.leaf) + len(s.full)
	if len(s.leaf)+len(s.full) > 0 {
		s.convolve()
	}

	last := len(s.width) - 1
	dim := s.width[last]
	s.pooled = resize(s.pooled, len(forests)*dim)
	negInf := T(math.Inf(-1))
	root := 0
	for fi, f := range forests {
		row := s.pooled[fi*dim : (fi+1)*dim]
		for i := range row {
			row[i] = negInf
		}
		for _, t := range f {
			if t != nil {
				foldMax(row, s.slot(s.roots[root], last))
				root++
			}
		}
		// An empty forest — and a channel that is NaN or −Inf at every node —
		// pools to 0, as in the per-sample forward.
		for i, v := range row {
			if v == negInf {
				row[i] = 0
			}
		}
	}
	head := s.head(s.pooled, len(forests), &s.arena)
	out := make([]float64, len(forests))
	for i := range out {
		out[i] = float64(head[i])
	}
	s.arena.Reset()
	return out
}

// convolve fills the records of the call's misses, one layer at a time over
// all of them: a layer's rows gather the layer below's slots, which the
// previous iteration (or an earlier call) has filled.
func (s *scorer[T]) convolve() {
	last := len(s.width) - 1
	in := s.net.planDim + len(s.query)
	for k, oc := range s.width {
		s.leafRows = resize(s.leafRows, len(s.leaf)*in)
		s.fullRows = resize(s.fullRows, len(s.full)*3*in)
		for i, m := range s.leaf {
			s.gather(s.leafRows[i*in:(i+1)*in], k, m.t, m.rec)
		}
		for i, m := range s.full {
			row := s.fullRows[i*3*in : (i+1)*3*in]
			s.gather(row[:in], k, m.t, m.rec)
			s.gather(row[in:2*in], k, m.t.Left, m.left)
			s.gather(row[2*in:], k, m.t.Right, m.right)
		}
		s.out = resize(s.out, (len(s.leaf)+len(s.full))*oc)
		s.conv(k, s.leafRows, s.fullRows, s.out)

		if k < last {
			for i, m := range s.leaf {
				copy(s.slot(m.rec, k), s.out[i*oc:(i+1)*oc])
			}
			for i, m := range s.full {
				copy(s.slot(m.rec, k), s.out[(len(s.leaf)+i)*oc:])
			}
			in = oc
			continue
		}
		// Last layer: keep the subtree's pooled maximum, not the activation.
		// Own row first, then the left subtree's maximum, then the right's —
		// the pre-order DynamicPool visits the nodes in, which decides which
		// of two equal zeros of opposite sign survives. Children precede their
		// parents in full, so their maxima are final when read.
		for i, m := range s.leaf {
			s.pool(m, s.out[i*oc:(i+1)*oc])
		}
		for i, m := range s.full {
			s.pool(m, s.out[(len(s.leaf)+i)*oc:])
		}
	}
}

// pool fills the pooled-maximum slot of m's record from m's own last-layer
// activation and its children's maxima.
func (s *scorer[T]) pool(m miss, own []T) {
	last := len(s.width) - 1
	acc := s.slot(m.rec, last)
	negInf := T(math.Inf(-1))
	for c := range acc {
		acc[c] = negInf
	}
	foldMax(acc, own)
	if m.left >= 0 {
		foldMax(acc, s.slot(m.left, last))
	}
	if m.right >= 0 {
		foldMax(acc, s.slot(m.right, last))
	}
}

// gather writes the operand a node contributes to a layer-k row: its plan
// vector followed by the query embedding for the first layer (the
// float64→float32 input-encode boundary of reduced-precision scoring), its
// recorded activation of the layer below otherwise, zeros for
// an absent child.
func (s *scorer[T]) gather(dst []T, k int, t *treeconv.Tree, rec int32) {
	switch {
	case t == nil:
		clear(dst)
	case k > 0:
		copy(dst, s.slot(rec, k-1))
	default:
		if len(t.Data) != s.net.planDim {
			panic("valuenet: plan vector dimension mismatch")
		}
		for i, v := range t.Data {
			dst[i] = T(v)
		}
		copy(dst[len(t.Data):], s.query)
	}
}

// foldMax raises acc to vs wherever vs is greater, with DynamicPool's
// comparison: a NaN never replaces anything and an equal value keeps the
// earlier operand.
func foldMax[T nn.Float](acc, vs []T) {
	for i, v := range vs[:len(acc)] {
		if v > acc[i] {
			acc[i] = v
		}
	}
}

// resize returns s with length n and unspecified contents, reallocating only
// when n exceeds its capacity.
func resize[E any](s []E, n int) []E { return slices.Grow(s[:0], n)[:n] }

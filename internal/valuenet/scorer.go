// Scoring. A Scorer is the network's one inference pass;
// Snapshot.PredictBatch is a loop over scorers, one per distinct query. A
// plan search hands one scorer thousands of forests of one query that differ
// from each other by a node or two — a child plan is its parent plus one join
// or one scan choice — and tree convolution only looks down: a node's output
// at layer k is a function of its own row and its children's outputs at
// layer k−1. The query embedding that spatial replication appends to every
// row is constant within a search, so a subtree's activations, and the
// per-channel maximum dynamic pooling takes over it, are the same in every
// plan that contains it.
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
// Subtrees are interned in a treeconv.Subtrees table, all under one query
// group, and record e belongs to entry e: feature.PlanEncoder returns one
// tree per structural hash within a search, so pointer identity is
// structural identity there, and for trees that merely look alike it is
// conservative. A call's misses are the entries it added. Score convolves
// them — one row per layer each, through treeconv's row kernels — folds
// pool(node) = max(own, pool(left), pool(right)), takes each forest's
// maximum over its roots' pools and runs the head once per forest. Every
// record is kept; the table is garbage when the search drops its scorer.
//
// A score does not depend on what the table holds: a node's row goes through
// the same kernel on the same operands whichever call convolves it, and a
// row's result does not depend on the rows beside it (treeconv/rows.go); the
// maxima are folded with a v > cur comparison from −Inf in pre-order —
// DynamicPool's order — so ties between signed zeros and NaN operands resolve
// alike whether a subtree's maximum was recorded earlier or is folded now;
// and the head's kernels treat rows independently.
//
// The scorer runs in float32 through the snapshot's packed panels; the
// per-sample float64 Network.Predict stays the reference for the network's
// maths, and on finite activations a score is within 1e-5 relative of it.
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
	net   *Network          // dimensions and the target transform
	nf    *netF32           // the kernels
	query []float32         // the query tower's output
	width []int             // width[k]: output channels of conv layer k
	off   []int             // off[k]: where a record keeps layer k's slot
	recW  int               // values per record
	tab   treeconv.Subtrees // subtree → entry, the index of its record
	slab  [][]float32       // records, recordChunk to a chunk
	stats ScorerStats

	// Reused from call to call.
	roots      []int32 // record of every non-nil root of the call, in order
	leaf, full []int32 // the call's new entries: childless, and with a child
	leafRows   []float32
	fullRows   []float32
	out        []float32
	pooled     []float32
	arena      nn.Arena[float32]
}

// ScorerStats counts a scorer's work since it was created.
type ScorerStats struct {
	// Plans is the number of forests scored.
	Plans int
	// Nodes is the number of tree nodes those forests hold — what scoring
	// them from scratch would have convolved.
	Nodes int
	// Computed is the number of nodes actually convolved: the distinct
	// subtrees seen. 1 − Computed/Nodes is the table's hit share.
	Computed int
}

// NewScorer runs the query tower over queryVec and returns an empty scorer
// for forests of that query.
func (s *Snapshot) NewScorer(queryVec []float64) *Scorer {
	n := s.net
	if len(queryVec) != n.queryDim {
		panic("valuenet: query vector dimension mismatch")
	}
	sc := &Scorer{net: n, nf: &s.f32}
	for _, l := range n.conv.Layers {
		sc.off = append(sc.off, sc.recW)
		sc.width = append(sc.width, l.OutChannels)
		sc.recW += l.OutChannels
	}
	q := make([]float32, len(queryVec))
	for i, v := range queryVec {
		q[i] = float32(v)
	}
	// The embedding outlives the arena's next Reset, so copy it out.
	sc.query = append([]float32(nil), s.f32.qmlp.ForwardBatch(q, 1, &sc.arena)...)
	sc.arena.Reset()
	return sc
}

// Score returns the cost predictions (in the original cost domain) for the
// forests. A forest's score does not depend on what the table held.
func (s *Scorer) Score(forests [][]*treeconv.Tree) []float64 {
	out := s.normalized(forests)
	for i, v := range out {
		out[i] = s.net.denormalize(v)
	}
	return out
}

// Stats reports the work done so far.
func (s *Scorer) Stats() ScorerStats { return s.stats }

// slot returns layer k's slot of record rec: the root's activation for every
// layer but the last, the subtree's pooled maximum for the last.
func (s *Scorer) slot(rec int32, k int) []float32 {
	base := int(rec)%recordChunk*s.recW + s.off[k]
	return s.slab[int(rec)/recordChunk][base : base+s.width[k]]
}

// normalized is Score in normalised log-cost space: the head's outputs.
func (s *Scorer) normalized(forests [][]*treeconv.Tree) []float64 {
	if len(forests) == 0 {
		return nil
	}
	s.roots, s.leaf, s.full = s.roots[:0], s.leaf[:0], s.full[:0]
	first := int32(s.tab.Len())
	for _, f := range forests {
		for _, t := range f {
			if t != nil {
				s.stats.Nodes += t.NumNodes()
				s.roots = append(s.roots, s.tab.Add(t, 0))
			}
		}
	}
	for e := first; e < int32(s.tab.Len()); e++ {
		if int(e)%recordChunk == 0 {
			s.slab = append(s.slab, make([]float32, recordChunk*s.recW))
		}
		if s.tab.Left[e] < 0 && s.tab.Right[e] < 0 {
			s.leaf = append(s.leaf, e)
		} else {
			s.full = append(s.full, e)
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
	negInf := float32(math.Inf(-1))
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
	head := s.nf.head.ForwardBatch(s.pooled, len(forests), &s.arena)
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
func (s *Scorer) convolve() {
	last := len(s.width) - 1
	in := s.net.planDim + len(s.query)
	for k, oc := range s.width {
		s.leafRows = resize(s.leafRows, len(s.leaf)*in)
		s.fullRows = resize(s.fullRows, len(s.full)*3*in)
		for i, e := range s.leaf {
			s.gather(s.leafRows[i*in:(i+1)*in], k, e)
		}
		for i, e := range s.full {
			row := s.fullRows[i*3*in : (i+1)*3*in]
			s.gather(row[:in], k, e)
			s.gather(row[in:2*in], k, s.tab.Left[e])
			s.gather(row[2*in:], k, s.tab.Right[e])
		}
		s.out = resize(s.out, (len(s.leaf)+len(s.full))*oc)
		s.nf.conv.ForwardRows(k, s.leafRows, s.fullRows, s.out)

		if k < last {
			for i, e := range s.leaf {
				copy(s.slot(e, k), s.out[i*oc:(i+1)*oc])
			}
			for i, e := range s.full {
				copy(s.slot(e, k), s.out[(len(s.leaf)+i)*oc:])
			}
			in = oc
			continue
		}
		// Last layer: keep the subtree's pooled maximum, not the activation.
		// Own row first, then the left subtree's maximum, then the right's —
		// the pre-order DynamicPool visits the nodes in, which decides which
		// of two equal zeros of opposite sign survives. Children precede their
		// parents in full, so their maxima are final when read.
		for i, e := range s.leaf {
			s.pool(e, s.out[i*oc:(i+1)*oc])
		}
		for i, e := range s.full {
			s.pool(e, s.out[(len(s.leaf)+i)*oc:])
		}
	}
}

// pool fills the pooled-maximum slot of entry e's record from e's own
// last-layer activation and its children's maxima.
func (s *Scorer) pool(e int32, own []float32) {
	last := len(s.width) - 1
	acc := s.slot(e, last)
	negInf := float32(math.Inf(-1))
	for c := range acc {
		acc[c] = negInf
	}
	foldMax(acc, own)
	if l := s.tab.Left[e]; l >= 0 {
		foldMax(acc, s.slot(l, last))
	}
	if r := s.tab.Right[e]; r >= 0 {
		foldMax(acc, s.slot(r, last))
	}
}

// gather writes the operand entry e contributes to a layer-k row: its plan
// vector followed by the query embedding for the first layer (the
// float64→float32 input-encode boundary), its recorded activation of the
// layer below otherwise, zeros for an absent child (e < 0).
func (s *Scorer) gather(dst []float32, k int, e int32) {
	switch {
	case e < 0:
		clear(dst)
	case k > 0:
		copy(dst, s.slot(e, k-1))
	default:
		t := s.tab.Tree[e]
		if len(t.Data) != s.net.planDim {
			panic("valuenet: plan vector dimension mismatch")
		}
		for i, v := range t.Data {
			dst[i] = float32(v)
		}
		copy(dst[len(t.Data):], s.query)
	}
}

// foldMax raises acc to vs wherever vs is greater, with DynamicPool's
// comparison: a NaN never replaces anything and an equal value keeps the
// earlier operand.
func foldMax(acc, vs []float32) {
	for i, v := range vs[:len(acc)] {
		if v > acc[i] {
			acc[i] = v
		}
	}
}

// resize returns s with length n and unspecified contents, reallocating only
// when n exceeds its capacity.
func resize[E any](s []E, n int) []E { return slices.Grow(s[:0], n)[:n] }

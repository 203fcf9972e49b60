// Scoring. A Scorer is the network's one inference pass. A plan search
// hands one scorer thousands of forests of one query that differ from each
// other by a node or two — a child plan is its parent plus one join or one
// scan choice — and tree convolution only looks down: a node's output
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
// A scorer is shown forests as their roots' ids in an id space
// (treeconv.Nodes) that names every subtree by a dense id — a search's
// plan.Nodes table, through its plan encoder — and the record of subtree id
// is record id: the lookup is a slice index. A call's misses are the subtrees under its roots, at any depth,
// that have no record yet. Score convolves them —
// one row per layer each, through treeconv's row kernels — folds
// pool(node) = max(own, pool(left), pool(right)), takes each forest's
// maximum over its roots' pools and runs the head once per forest. Every
// record is kept; they are garbage when the search drops its scorer.
//
// A search scores an expansion's children as edits of the parent forest
// (ScoreEdits), which spares their pooling most of its work: a join child's
// roots are the parent's minus the two it joins plus the join, and the
// join's pooled maximum covers both, so the child pools as the parent's
// maximum folded with the join's. Only a signed zero can tell the two apart
// — the fold keeps the first of equal values, and the parent's first may be
// a root the child no longer has — so a child with a zero channel is folded
// over its roots in order, as Normalized folds it.
//
// A score does not depend on what the records hold: a node's row goes through
// the same kernel on the same operands whichever call convolves it, and a
// row's result does not depend on the rows beside it (treeconv/rows.go); the
// maxima are folded with a v > cur comparison from −Inf in pre-order —
// dynamic pooling's order — so ties between signed zeros and NaN operands resolve
// alike whether a subtree's maximum was recorded earlier or is folded now;
// and the head's kernels treat rows independently.
//
// The scorer runs in float32 through the snapshot's packed panels, the only
// weights a snapshot holds; the per-sample float64 reference network
// (internal/reftest), run on the network the snapshot was frozen from, stays
// the reference for the network's maths, and on finite activations a score
// is within 1e-5 relative of it.
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
// concurrent use, and the rows its Nodes return must not be modified.
type Scorer struct {
	snap  *Snapshot      // the kernels, dimensions and target transform
	nodes treeconv.Nodes // the id space records are kept by
	query []float32      // the query tower's output
	width []int          // width[k]: output channels of conv layer k
	off   []int          // off[k]: where a record keeps layer k's slot
	recW  int            // values per record
	// size[id] is subtree id's node count once it has a record, 0 before;
	// left[id] and right[id] are its children.
	size, left, right []int32
	slab              [][]float32 // records by id, recordChunk to a chunk
	stats             ScorerStats

	// Reused from call to call.
	leaf, full []int32 // the call's new ids: leaves, and joins
	leafRows   []float32
	fullRows   []float32
	out        []float32
	pooled     []float32
	parent     []float32 // the parent forest's pooled row, by ScoreEdits
	scores     []float64 // what ScoreEdits returns
	arena      nn.Arena[float32]
}

// Edit names a child of a forest by what changes: root I becomes Root when
// J < 0, and roots I < J make way for Root, appended after the roots left,
// otherwise — the forest that plan.Plan.Apply builds for a plan.Edit.
type Edit struct {
	I, J, Root int32
}

// ScorerStats counts a scorer's work since it was created.
type ScorerStats struct {
	// Plans is the number of forests scored.
	Plans int
	// Nodes is the number of tree nodes those forests hold — what scoring
	// them from scratch would have convolved.
	Nodes int
	// Computed is the number of nodes actually convolved: the distinct
	// subtrees seen. 1 − Computed/Nodes is the records' hit share.
	Computed int
}

// NewScorer runs the query tower over queryVec and returns an empty scorer
// for forests of that query whose subtrees nodes names. An id must name the
// same subtree for as long as the scorer lives.
func (s *Snapshot) NewScorer(queryVec []float64, nodes treeconv.Nodes) *Scorer {
	if len(queryVec) != s.queryDim {
		panic("valuenet: query vector dimension mismatch")
	}
	sc := &Scorer{snap: s, nodes: nodes}
	for _, l := range s.conv.Layers {
		sc.off = append(sc.off, sc.recW)
		sc.width = append(sc.width, l.Out)
		sc.recW += l.Out
	}
	q := make([]float32, len(queryVec))
	for i, v := range queryVec {
		q[i] = float32(v)
	}
	// The embedding outlives the arena's next Reset, so copy it out.
	sc.query = append([]float32(nil), s.qmlp.ForwardBatch(q, 1, &sc.arena)...)
	sc.arena.Reset()
	return sc
}

// Score returns the cost predictions (in the original cost domain) for the
// forests, each given as its roots' ids. A forest's score does not depend on
// what the scorer has recorded.
func (s *Scorer) Score(forests [][]int32) []float64 {
	out := s.Normalized(forests)
	for i, v := range out {
		out[i] = s.snap.denormalize(v)
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

// Normalized is Score in normalised log-cost space: the head's outputs, the
// space the Figure 14 robustness analysis histograms.
func (s *Scorer) Normalized(forests [][]int32) []float64 {
	if len(forests) == 0 {
		return nil
	}
	s.leaf, s.full = s.leaf[:0], s.full[:0]
	for _, f := range forests {
		for _, id := range f {
			s.stats.Nodes += int(s.add(id))
		}
	}
	s.convolveNew(len(forests))
	dim := s.width[len(s.width)-1]
	s.pooled = resize(s.pooled, len(forests)*dim)
	for fi, f := range forests {
		row := s.pooled[fi*dim : (fi+1)*dim]
		s.fold(row, f, Edit{I: -1, J: -1})
		zeroEmpty(row)
	}
	return s.head(make([]float64, len(forests)))
}

// ScoreEdits is Score over the children of the forest parent that edits
// name, in order: bit for bit what Score returns for the child forests. The
// scores are the scorer's, overwritten by its next ScoreEdits call.
func (s *Scorer) ScoreEdits(parent []int32, edits []Edit) []float64 {
	if len(edits) == 0 {
		return nil
	}
	s.leaf, s.full = s.leaf[:0], s.full[:0]
	nodes := int32(0)
	for _, id := range parent {
		nodes += s.add(id)
	}
	for _, e := range edits {
		// A child holds the parent's nodes less the roots it replaces, plus
		// its new root.
		root := s.add(e.Root)
		n := nodes - s.size[parent[e.I]] + root
		if e.J >= 0 {
			n -= s.size[parent[e.J]]
		}
		s.stats.Nodes += int(n)
	}
	s.convolveNew(len(edits))

	last := len(s.width) - 1
	dim := s.width[last]
	s.parent = resize(s.parent, dim)
	s.fold(s.parent, parent, Edit{I: -1, J: -1})
	s.pooled = resize(s.pooled, len(edits)*dim)
	for ei, e := range edits {
		row := s.pooled[ei*dim : (ei+1)*dim]
		if e.J < 0 {
			s.fold(row, parent, e)
			zeroEmpty(row)
			continue
		}
		copy(row, s.parent)
		nn.FoldMax(row, s.slot(e.Root, last))
		if zeroEmpty(row) {
			s.fold(row, parent, e)
			zeroEmpty(row)
		}
	}
	out := s.head(resize(s.scores, len(edits)))
	for i, v := range out {
		out[i] = s.snap.denormalize(v)
	}
	s.scores = out
	return out
}

// convolveNew counts the call's forests and fills the records of its misses.
func (s *Scorer) convolveNew(forests int) {
	s.stats.Plans += forests
	s.stats.Computed += len(s.leaf) + len(s.full)
	if len(s.leaf)+len(s.full) > 0 {
		s.convolve()
	}
}

// fold sets row to the per-channel maximum of the pooled maxima of the
// forest that edit e makes of roots (roots itself when e.I < 0), folded from
// −Inf in root order: ties keep the first root's value.
func (s *Scorer) fold(row []float32, roots []int32, e Edit) {
	last := len(s.width) - 1
	negInf := float32(math.Inf(-1))
	for i := range row {
		row[i] = negInf
	}
	for k, id := range roots {
		switch {
		case k != int(e.I) && k != int(e.J):
			nn.FoldMax(row, s.slot(id, last))
		case e.J < 0:
			nn.FoldMax(row, s.slot(e.Root, last))
		}
	}
	if e.J >= 0 {
		nn.FoldMax(row, s.slot(e.Root, last))
	}
}

// zeroEmpty sets a pooled row's −Inf channels to 0 — an empty forest, and a
// channel that is NaN or −Inf at every node, pools to 0, as in the
// per-sample reference — and reports whether any other channel is ±0.
func zeroEmpty(row []float32) (zero bool) {
	negInf := float32(math.Inf(-1))
	for i, v := range row {
		switch v {
		case negInf:
			row[i] = 0
		case 0:
			zero = true
		}
	}
	return zero
}

// head runs the head over the call's first len(out) pooled rows into out.
func (s *Scorer) head(out []float64) []float64 {
	head := s.snap.head.ForwardBatch(s.pooled, len(out), &s.arena)
	for i := range out {
		out[i] = float64(head[i])
	}
	s.arena.Reset()
	return out
}

// add gives subtree id, and whatever below it has none, a record to fill —
// listing the new ids children first in leaf or full — and returns the
// subtree's node count.
func (s *Scorer) add(id int32) int32 {
	if int(id) < len(s.size) && s.size[id] > 0 {
		return s.size[id]
	}
	_, l, r := s.nodes.Node(id)
	size := int32(1)
	if l >= 0 {
		size += s.add(l) + s.add(r)
	}
	if n := int(id) + 1; n > len(s.size) {
		// The three grow together and never shrink, so what they expose
		// beyond their old length is still zero.
		s.size = slices.Grow(s.size, n-len(s.size))[:n]
		s.left = slices.Grow(s.left, n-len(s.left))[:n]
		s.right = slices.Grow(s.right, n-len(s.right))[:n]
	}
	s.size[id], s.left[id], s.right[id] = size, l, r
	c := int(id) / recordChunk
	for c >= len(s.slab) {
		s.slab = append(s.slab, nil)
	}
	if s.slab[c] == nil {
		s.slab[c] = make([]float32, recordChunk*s.recW)
	}
	if l < 0 {
		s.leaf = append(s.leaf, id)
	} else {
		s.full = append(s.full, id)
	}
	return size
}

// convolve fills the records of the call's misses, one layer at a time over
// all of them: a layer's rows gather the layer below's slots, which the
// previous iteration (or an earlier call) has filled.
func (s *Scorer) convolve() {
	last := len(s.width) - 1
	in := s.snap.planDim + len(s.query)
	for k, oc := range s.width {
		s.leafRows = resize(s.leafRows, len(s.leaf)*in)
		s.fullRows = resize(s.fullRows, len(s.full)*3*in)
		for i, e := range s.leaf {
			s.gather(s.leafRows[i*in:(i+1)*in], k, e)
		}
		for i, e := range s.full {
			row := s.fullRows[i*3*in : (i+1)*3*in]
			s.gather(row[:in], k, e)
			s.gather(row[in:2*in], k, s.left[e])
			s.gather(row[2*in:], k, s.right[e])
		}
		s.out = resize(s.out, (len(s.leaf)+len(s.full))*oc)
		s.snap.conv.ForwardRows(k, s.leafRows, s.fullRows, s.out)

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
		// the pre-order dynamic pooling visits the nodes in, which decides
		// which of two equal zeros of opposite sign survives. Children precede their
		// parents in full, so their maxima are final when read.
		for i, e := range s.leaf {
			s.pool(e, s.out[i*oc:(i+1)*oc])
		}
		for i, e := range s.full {
			s.pool(e, s.out[(len(s.leaf)+i)*oc:])
		}
	}
}

// pool fills the pooled-maximum slot of subtree e's record from e's own
// last-layer activation and its children's maxima.
func (s *Scorer) pool(e int32, own []float32) {
	last := len(s.width) - 1
	acc := s.slot(e, last)
	negInf := float32(math.Inf(-1))
	for c := range acc {
		acc[c] = negInf
	}
	nn.FoldMax(acc, own)
	if l := s.left[e]; l >= 0 {
		nn.FoldMax(acc, s.slot(l, last))
		nn.FoldMax(acc, s.slot(s.right[e], last))
	}
}

// gather writes the operand subtree e contributes to a layer-k row: its plan
// vector followed by the query embedding for the first layer (the
// float64→float32 input-encode boundary), its recorded activation of the
// layer below otherwise.
func (s *Scorer) gather(dst []float32, k int, e int32) {
	if k > 0 {
		copy(dst, s.slot(e, k-1))
		return
	}
	row, _, _ := s.nodes.Node(e)
	if len(row) != s.snap.planDim {
		panic("valuenet: plan vector dimension mismatch")
	}
	for i, v := range row {
		dst[i] = float32(v)
	}
	copy(dst[len(row):], s.query)
}

// resize returns s with length n and unspecified contents, reallocating only
// when n exceeds its capacity.
func resize[E any](s []E, n int) []E { return slices.Grow(s[:0], n)[:n] }

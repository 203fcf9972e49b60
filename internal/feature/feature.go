// Package feature implements Neo's query featurization (Section 3 of the
// paper): the query-level encoding (join-graph adjacency + column-predicate
// vector, with 1-Hot, Histogram and R-Vector variants) and the plan-level
// encoding (one |J|+2|R| vector per plan-tree node, preserving the tree
// structure for tree convolution). A PlanEncoder hands the value network a
// plan as node ids, answering each id's vector and children's ids.
package feature

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"neo/internal/embedding"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/schema"
	"neo/internal/stats"
	"neo/internal/storage"
)

// Encoding selects the column-predicate representation.
type Encoding string

const (
	// OneHot marks predicated attributes with a 1 (Section 3.2 option 1).
	OneHot Encoding = "1-hot"
	// Histogram replaces the 1 with the predicted selectivity (option 2).
	Histogram Encoding = "histogram"
	// RVector uses learned row-vector embeddings (option 3, Section 5).
	RVector Encoding = "r-vector"
	// RVectorNoJoins is the R-Vector variant trained without partial
	// denormalisation (used by the Figure 12 ablation).
	RVectorNoJoins Encoding = "r-vector-nojoins"
)

// AllEncodings lists every featurization in the order Figure 12 reports them.
func AllEncodings() []Encoding {
	return []Encoding{RVector, RVectorNoJoins, Histogram, OneHot}
}

// numCmpOps is the number of comparison operators one-hot encoded by the
// R-Vector predicate representation.
const numCmpOps = 7

// CardinalitySource optionally supplies a per-node cardinality feature
// appended to every plan-node vector. It implements the protocol of the
// Figure 14 robustness experiment (PostgreSQL estimates vs. true
// cardinalities, optionally perturbed).
type CardinalitySource interface {
	// NodeCardinality returns an estimated (or true) output cardinality for
	// the subplan rooted at n of query q, given the cardinalities the same
	// source returned for n's children (both zero for a leaf): a plan
	// encoder asks once per node, bottom-up, and never re-derives a subtree.
	// joins is plan.JoinsOf(q), built once per encoder.
	NodeCardinality(q *query.Query, joins *plan.Joins, n *plan.Node, left, right float64) float64
}

// Featurizer converts queries and plans into the numeric representations the
// value network consumes. Construct one per (catalog, encoding) pair.
type Featurizer struct {
	Catalog  *schema.Catalog
	Encoding Encoding
	// Stats is required for the Histogram encoding.
	Stats *stats.Stats
	// Cardinality, when non-nil, appends log-scaled per-node cardinality
	// estimates to the plan encoding.
	Cardinality CardinalitySource

	// rows holds the R-Vector encodings' model (nil for the others, or for
	// an R-Vector featurizer built without one, which encodes no vectors).
	// A pointer, so that copies of a Featurizer share one model.
	rows *rowVectors
}

// rowVectors is an R-Vector featurizer's row-vector model. It is set once:
// trained by the first featurization that needs it, or adopted by an
// earlier Adopt. Its width is known before either, so the encodings' sizes
// never wait for training.
type rowVectors struct {
	dim    int
	train  func() *embedding.Model
	corpus func() [][]string // the sentences train trains on, for Adopt's check

	mu    sync.Mutex // held while the model is set
	model atomic.Pointer[embedding.Model]
}

// ForEncoding returns the featurizer of the given encoding over a database
// and its statistics. Every encoding carries the histogram-estimated
// per-node cardinality in the plan encoding (the signal a traditional cost
// model consumes); what varies is the query-level predicate representation.
// The R-Vector encodings get their model, dim wide, from rows, asked with
// joins true for RVector (partially denormalised rows) and false for
// RVectorNoJoins, and built over embedding.RowCorpus(db, joins). rows is
// called at most once, on first use rather than here (see Embedding and
// Adopt); the other encodings never call it.
func ForEncoding(db *storage.Database, st *stats.Stats, enc Encoding, dim int, rows func(joins bool) *embedding.Model) *Featurizer {
	f := &Featurizer{
		Catalog:     db.Catalog,
		Encoding:    enc,
		Stats:       st,
		Cardinality: &HistogramCardinality{Stats: st},
	}
	if enc == RVector || enc == RVectorNoJoins {
		joins := enc == RVector
		f.rows = &rowVectors{
			dim:    dim,
			train:  func() *embedding.Model { return rows(joins) },
			corpus: func() [][]string { return embedding.RowCorpus(db, joins) },
		}
	}
	return f
}

// Embedding returns the R-Vector encodings' row-vector model, training it
// first if neither an earlier call nor Adopt has set it; nil for the other
// encodings. Safe for concurrent use: concurrent first calls train once and
// all return the one model.
func (f *Featurizer) Embedding() *embedding.Model {
	r := f.rows
	if r == nil {
		return nil
	}
	if m := r.model.Load(); m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.model.Load(); m != nil {
		return m
	}
	m := r.train()
	if m.Dim != r.dim {
		panic(fmt.Sprintf("feature: trained a %d-wide row-vector model for a %d-wide featurizer", m.Dim, r.dim))
	}
	r.model.Store(m)
	return m
}

// Adopt offers m, typically a checkpoint's model, as the row-vector model
// and reports whether the featurizer now featurizes with vectors equal to
// m's. Before the model is set, m is taken as the model, without training,
// if it describes this featurizer's corpus (embedding.Model.Describes: its
// width, sentence count, vocabulary and per-token counts); building and
// counting the corpus runs no SGD. Once the model is set, by training or by
// an earlier Adopt, m must have the same vectors (SameVectors). A refused m
// changes nothing. A featurizer without row vectors refuses every m.
func (f *Featurizer) Adopt(m *embedding.Model) bool {
	r := f.rows
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.model.Load(); cur != nil {
		return cur.SameVectors(m)
	}
	if !m.Describes(r.corpus(), r.dim) {
		return false
	}
	r.model.Store(m)
	return true
}

// rowDim returns the width of the row vectors (0 without them).
func (f *Featurizer) rowDim() int {
	if f.rows == nil {
		return 0
	}
	return f.rows.dim
}

// predicateBlockSize returns the width of the per-attribute block in the
// column-predicate vector.
func (f *Featurizer) predicateBlockSize() int {
	switch f.Encoding {
	case RVector, RVectorNoJoins:
		// one-hot comparison op + matched-word count + embedding + seen count
		return numCmpOps + 1 + f.rowDim() + 1
	default:
		return 1
	}
}

// joinGraphSize returns the number of entries in the upper-triangular join
// adjacency encoding.
func (f *Featurizer) joinGraphSize() int {
	n := f.Catalog.NumRelations()
	return n * (n - 1) / 2
}

// QueryVectorSize returns the length of the query-level encoding.
func (f *Featurizer) QueryVectorSize() int {
	return f.joinGraphSize() + f.Catalog.NumAttributes()*f.predicateBlockSize()
}

// PlanVectorSize returns the length of each plan-node vector: |J| join-type
// slots plus two slots (table-scan, index-scan) per relation, plus two
// derived slots (log cardinality and log work estimate) when a
// CardinalitySource is configured.
func (f *Featurizer) PlanVectorSize() int {
	size := plan.NumJoinOps + 2*f.Catalog.NumRelations()
	if f.Cardinality != nil {
		size += 2
	}
	return size
}

// EncodeQuery builds the query-level encoding of Figure 3: the flattened
// upper triangle of the join-graph adjacency matrix followed by the column
// predicate vector.
func (f *Featurizer) EncodeQuery(q *query.Query) []float64 {
	out := make([]float64, 0, f.QueryVectorSize())

	// Join-graph upper triangle.
	g := q.JoinGraph(f.Catalog)
	n := f.Catalog.NumRelations()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g[i][j] {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	}

	// Column-predicate vector.
	block := f.predicateBlockSize()
	preds := make([][]float64, f.Catalog.NumAttributes())
	for _, p := range q.Predicates {
		idx := f.Catalog.AttributeIndex(p.Table, p.Column)
		if idx < 0 {
			continue
		}
		preds[idx] = f.encodePredicate(p, preds[idx])
	}
	for _, blockVals := range preds {
		if blockVals == nil {
			out = append(out, make([]float64, block)...)
			continue
		}
		out = append(out, blockVals...)
	}
	return out
}

// encodePredicate produces the per-attribute block for one predicate
// according to the configured encoding. When an attribute carries several
// predicates the blocks are merged (1-Hot stays 1, Histogram multiplies
// selectivities, R-Vector keeps the first predicate's semantics).
func (f *Featurizer) encodePredicate(p query.Predicate, existing []float64) []float64 {
	switch f.Encoding {
	case Histogram:
		sel := 1.0
		if f.Stats != nil {
			sel = f.Stats.Selectivity(p)
		}
		if existing != nil {
			sel *= existing[0]
		}
		return []float64{sel}
	case RVector, RVectorNoJoins:
		if existing != nil {
			return existing
		}
		return f.rvectorBlock(p)
	default: // OneHot
		return []float64{1}
	}
}

// rvectorBlock builds the R-Vector predicate representation of Section 5.1:
// one-hot comparison operator, number of matched words, the value's
// embedding (or the mean of matched embeddings for pattern predicates), and
// how often the value was seen in training.
func (f *Featurizer) rvectorBlock(p query.Predicate) []float64 {
	dim := f.rowDim()
	block := make([]float64, numCmpOps+1+dim+1)
	if int(p.Op) >= 0 && int(p.Op) < numCmpOps {
		block[p.Op] = 1
	}
	emb := f.Embedding()
	if emb == nil {
		return block
	}
	prefix := embedding.TokenPrefix(p.Table, p.Column)
	var vec []float64
	matched := 0
	seen := 0
	value := p.Value
	if value.Kind == schema.IntType {
		// Integers were bucketed during embedding training.
		value = storage.IntValue(value.Int / 10 * 10)
	}
	if p.Op == query.Like {
		vec, matched = emb.MatchMean(prefix, p.Value.String())
	} else {
		token := prefix + value.String()
		if v, ok := emb.Vector(token); ok {
			vec, matched = v, 1
			seen = emb.Count(token)
		} else {
			vec, matched = emb.MatchMean(prefix, "")
		}
	}
	block[numCmpOps] = math.Log1p(float64(matched))
	for i := 0; i < dim && i < len(vec); i++ {
		block[numCmpOps+1+i] = vec[i]
	}
	block[numCmpOps+1+dim] = math.Log1p(float64(seen))
	return block
}

// PlanEncoder encodes plans of one query, following Figure 4: one vector per
// plan node, whose first |J| entries one-hot the join operator and whose next
// 2|R| entries mark which relations are scanned and how (table, index, or
// both for unspecified scans); internal nodes take the union of their
// children. When a CardinalitySource is configured two derived entries (see
// PlanVectorSize) are appended. It indexes nodes by a plan.Nodes table and
// remembers every node's vector in a slice indexed by the node's id there,
// so the encoder is the id space (treeconv.Nodes) the value network reads: a
// plan that shares subtrees with an earlier one (a search child with its
// parent, an experience entry's construction states) costs only its new
// nodes' vectors, and a node's cardinality is derived once from its
// children's. A node of another table is interned into the encoder's first.
// The memo lives as long as the encoder — one search, one scorer, one
// entry's training samples — and is not safe for concurrent use. Returned
// vectors are shared and must not be modified.
type PlanEncoder struct {
	// Error, when non-nil, perturbs the cardinality feature (the Figure 14
	// protocol). Set it before the first AppendIDs.
	Error *stats.ErrorModel

	f     *Featurizer
	q     *query.Query
	joins *plan.Joins // q's, for the cardinality source
	nodes *plan.Nodes
	memo  []encodedNode // by node id; row is nil until encoded
}

// encodedNode is what the encoder remembers of one node.
type encodedNode struct {
	row []float64
	// card is the cardinality source's answer, the input to the parent's;
	// est is card after the Figure 14 perturbation (card itself without an
	// error model), the value both this node's slot and its parent's work
	// slot show, drawn once.
	card, est float64
}

// NewPlanEncoder returns an empty encoder for plans of q whose nodes it
// indexes by nodes.
func (f *Featurizer) NewPlanEncoder(q *query.Query, nodes *plan.Nodes) *PlanEncoder {
	return &PlanEncoder{f: f, q: q, joins: plan.JoinsOf(q), nodes: nodes}
}

// AppendIDs encodes p and appends its roots' node ids to dst: the forest as
// the value network takes it, scoring or training.
func (e *PlanEncoder) AppendIDs(dst []int32, p *plan.Plan) []int32 {
	for _, r := range p.Roots {
		dst = append(dst, e.ID(r))
	}
	return dst
}

// ID encodes n and returns its node id.
func (e *PlanEncoder) ID(n *plan.Node) int32 {
	id := e.nodes.ID(n)
	e.encode(id)
	return id
}

// Node returns the plan vector of the encoded node with the given id and its
// children's ids (−1 for a leaf's): the encoder as an id space
// (treeconv.Nodes).
func (e *PlanEncoder) Node(id int32) (row []float64, left, right int32) {
	n := e.nodes.Node(id)
	if n.IsLeaf() {
		return e.memo[id].row, -1, -1
	}
	return e.memo[id].row, e.nodes.ID(n.Left), e.nodes.ID(n.Right)
}

// encode encodes the node with the given id, and whatever below it is new,
// and returns what the encoder remembers of it.
func (e *PlanEncoder) encode(id int32) encodedNode {
	if int(id) < len(e.memo) && e.memo[id].row != nil {
		return e.memo[id]
	}
	n := e.nodes.Node(id)
	f := e.f
	vec := make([]float64, f.PlanVectorSize())
	en := encodedNode{row: vec}
	var left, right encodedNode
	if n.IsLeaf() {
		if idx := f.Catalog.TableIndex(n.Table); idx >= 0 {
			base := plan.NumJoinOps + 2*idx
			switch n.Scan {
			case plan.TableScan:
				vec[base] = 1
			case plan.IndexScan:
				vec[base+1] = 1
			default: // Unspecified: treated as both table and index scan
				vec[base] = 1
				vec[base+1] = 1
			}
		}
	} else {
		left, right = e.encode(e.nodes.ID(n.Left)), e.encode(e.nodes.ID(n.Right))
		vec[int(n.Join)] = 1
		// Union of the children's relation slots.
		for i := plan.NumJoinOps; i < plan.NumJoinOps+2*f.Catalog.NumRelations(); i++ {
			if left.row[i] > 0 || right.row[i] > 0 {
				vec[i] = 1
			}
		}
	}
	if f.Cardinality != nil {
		en.card = f.Cardinality.NodeCardinality(e.q, e.joins, n, left.card, right.card)
		en.est = en.card
		if e.Error != nil {
			en.est = e.Error.Perturb(en.card)
		}
		// The two derived slots: the log-scaled output-cardinality estimate
		// of the subplan, and a log-scaled generic work estimate for the
		// node's operator (scan size for leaves; input product for loop
		// joins, input sum for hash and merge joins). Both derive solely from
		// the configured CardinalitySource, so the Figure 14 protocol
		// (swapping in true cardinalities or injecting error) perturbs both
		// consistently.
		work := en.est
		switch {
		case !n.IsLeaf() && n.Join == plan.LoopJoin:
			work = left.est*right.est + en.est
		case !n.IsLeaf():
			work = left.est + right.est + en.est
		case f.Stats != nil:
			work = math.Max(f.Stats.TableRows(n.Table), 1)
		}
		vec[len(vec)-2] = math.Log10(1 + math.Max(en.est, 0))
		vec[len(vec)-1] = math.Log10(1 + math.Max(work, 0))
	}
	if len(e.memo) <= int(id) {
		e.memo = slices.Grow(e.memo, e.nodes.Len()-len(e.memo))[:e.nodes.Len()]
	}
	e.memo[id] = en
	return en
}

// String implements fmt.Stringer.
func (f *Featurizer) String() string {
	return fmt.Sprintf("featurizer(%s, query=%d, plan=%d)", f.Encoding, f.QueryVectorSize(), f.PlanVectorSize())
}

// HistogramCardinality estimates per-node cardinalities from histogram
// statistics (the "PostgreSQL estimate" source of Figure 14).
type HistogramCardinality struct {
	Stats *stats.Stats
}

// NodeCardinality implements CardinalitySource: a join's estimate combines
// its inputs' estimates under the first join predicate connecting them (a
// cross product without one).
func (h *HistogramCardinality) NodeCardinality(q *query.Query, joins *plan.Joins, n *plan.Node, left, right float64) float64 {
	if n.IsLeaf() {
		return h.Stats.EstimateScanRows(n.Table, q.PredicatesOn(n.Table))
	}
	join, ok := joins.Between(n.Left, n.Right)
	if !ok {
		return left * right
	}
	return h.Stats.EstimateJoinRows(left, right, join)
}

// TrueCardinality computes exact per-node cardinalities by executing the
// corresponding sub-query (the "true cardinality" source of Figure 14).
// Results are cached per (query, relation-subset).
type TrueCardinality struct {
	// Counter executes sub-queries; executor.Executor satisfies it.
	Counter interface {
		Count(q *query.Query) (float64, error)
	}
	mu    sync.Mutex
	cache map[string]float64 // guarded by mu
}

// NodeCardinality implements CardinalitySource; a true count does not derive
// from the inputs' counts. Safe for concurrent use (concurrent planners reach
// it through the featurizer).
func (t *TrueCardinality) NodeCardinality(q *query.Query, _ *plan.Joins, n *plan.Node, _, _ float64) float64 {
	if t.Counter == nil {
		return 0
	}
	tables := n.Tables()
	key := q.ID + "|"
	for _, tb := range tables {
		key += tb + ","
	}
	t.mu.Lock()
	if t.cache == nil {
		t.cache = make(map[string]float64)
	}
	if v, ok := t.cache[key]; ok {
		t.mu.Unlock()
		return v
	}
	t.mu.Unlock()
	sub := subQuery(q, tables)
	card, err := t.Counter.Count(sub)
	if err != nil {
		card = 0
	}
	t.mu.Lock()
	// A concurrent planner may have computed the same key while we executed
	// the sub-query; keep the first stored value authoritative.
	if v, ok := t.cache[key]; ok {
		card = v
	} else {
		t.cache[key] = card
	}
	t.mu.Unlock()
	return card
}

// subQuery restricts q to the given subset of relations, keeping the join
// and column predicates that only touch those relations.
func subQuery(q *query.Query, tables []string) *query.Query {
	in := make(map[string]bool, len(tables))
	for _, t := range tables {
		in[t] = true
	}
	var joins []query.JoinPredicate
	for _, j := range q.Joins {
		if in[j.LeftTable] && in[j.RightTable] {
			joins = append(joins, j)
		}
	}
	var preds []query.Predicate
	for _, p := range q.Predicates {
		if in[p.Table] {
			preds = append(preds, p)
		}
	}
	return query.New(q.ID+"-sub", tables, joins, preds)
}

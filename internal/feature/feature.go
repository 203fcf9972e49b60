// Package feature implements Neo's query featurization (Section 3 of the
// paper): the query-level encoding (join-graph adjacency + column-predicate
// vector, with 1-Hot, Histogram and R-Vector variants) and the plan-level
// encoding (one |J|+2|R| vector per plan-tree node, preserving the tree
// structure for tree convolution).
package feature

import (
	"fmt"
	"math"
	"sync"

	"neo/internal/embedding"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/schema"
	"neo/internal/stats"
	"neo/internal/storage"
	"neo/internal/treeconv"
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
	NodeCardinality(q *query.Query, n *plan.Node, left, right float64) float64
}

// Featurizer converts queries and plans into the numeric representations the
// value network consumes. Construct one per (catalog, encoding) pair.
type Featurizer struct {
	Catalog  *schema.Catalog
	Encoding Encoding
	// Stats is required for the Histogram encoding.
	Stats *stats.Stats
	// Embedding is required for the R-Vector encodings.
	Embedding *embedding.Model
	// Cardinality, when non-nil, appends log-scaled per-node cardinality
	// estimates to the plan encoding.
	Cardinality CardinalitySource
	// Error perturbs the cardinality feature (Figure 14 protocol).
	Error *stats.ErrorModel
}

// predicateBlockSize returns the width of the per-attribute block in the
// column-predicate vector.
func (f *Featurizer) predicateBlockSize() int {
	switch f.Encoding {
	case RVector, RVectorNoJoins:
		dim := 0
		if f.Embedding != nil {
			dim = f.Embedding.Dim
		}
		// one-hot comparison op + matched-word count + embedding + seen count
		return numCmpOps + 1 + dim + 1
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
	dim := 0
	if f.Embedding != nil {
		dim = f.Embedding.Dim
	}
	block := make([]float64, numCmpOps+1+dim+1)
	if int(p.Op) >= 0 && int(p.Op) < numCmpOps {
		block[p.Op] = 1
	}
	if f.Embedding == nil {
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
		vec, matched = f.Embedding.MatchMean(prefix, p.Value.String())
	} else {
		token := prefix + value.String()
		if v, ok := f.Embedding.Vector(token); ok {
			vec, matched = v, 1
			seen = f.Embedding.Count(token)
		} else {
			vec, matched = f.Embedding.MatchMean(prefix, "")
		}
	}
	block[numCmpOps] = math.Log1p(float64(matched))
	for i := 0; i < dim && i < len(vec); i++ {
		block[numCmpOps+1+i] = vec[i]
	}
	block[numCmpOps+1+dim] = math.Log1p(float64(seen))
	return block
}

// EncodePlan converts a (partial or complete) plan into a forest of feature
// trees, one vector per plan node, following Figure 4: the first |J| entries
// one-hot the join operator, the next 2|R| entries mark which relations are
// scanned and how (table, index, or both for unspecified scans); internal
// nodes take the union of their children. When a CardinalitySource is
// configured two derived entries (see PlanVectorSize) are appended. It is a
// fresh PlanEncoder used once; code that encodes many plans of one query —
// a search, an experience entry's construction states — keeps the encoder.
func (f *Featurizer) EncodePlan(p *plan.Plan) []*treeconv.Tree {
	return f.NewPlanEncoder(p.Query).Encode(p)
}

// PlanEncoder encodes plans of one query, remembering every subtree it has
// encoded by structural hash: a plan that shares subtrees with an earlier
// one (a search child with its parent) re-uses their feature trees and costs
// only its new nodes, and a node's cardinality is derived once from its
// children's. The memo lives as long as the encoder — one search, one
// scorer — and is not safe for concurrent use. Returned trees are shared
// between forests and must not be modified.
type PlanEncoder struct {
	f    *Featurizer
	q    *query.Query
	memo map[[2]uint64]encodedNode
}

// encodedNode is what the encoder remembers of one subtree.
type encodedNode struct {
	tree *treeconv.Tree
	// card is the cardinality source's answer, the input to the parent's;
	// est is card after the Figure 14 perturbation (card itself without an
	// error model), the value both this node's slot and its parent's work
	// slot show, drawn once.
	card, est float64
}

// NewPlanEncoder returns an empty encoder for plans of q.
func (f *Featurizer) NewPlanEncoder(q *query.Query) *PlanEncoder {
	return &PlanEncoder{f: f, q: q, memo: make(map[[2]uint64]encodedNode)}
}

// Encode returns p's forest of feature trees, one per root.
func (e *PlanEncoder) Encode(p *plan.Plan) []*treeconv.Tree {
	return e.AppendForest(make([]*treeconv.Tree, 0, len(p.Roots)), p)
}

// AppendForest appends p's forest to dst and returns the extended slice: a
// caller that only reads the forests during one scoring call keeps one
// buffer for all of them instead of one slice per plan.
func (e *PlanEncoder) AppendForest(dst []*treeconv.Tree, p *plan.Plan) []*treeconv.Tree {
	for _, r := range p.Roots {
		dst = append(dst, e.node(r).tree)
	}
	return dst
}

func (e *PlanEncoder) node(n *plan.Node) encodedNode {
	if en, ok := e.memo[n.Hash()]; ok {
		return en
	}
	f := e.f
	vec := make([]float64, f.PlanVectorSize())
	var en, left, right encodedNode
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
		en.tree = treeconv.NewLeaf(vec)
	} else {
		left, right = e.node(n.Left), e.node(n.Right)
		vec[int(n.Join)] = 1
		// Union of the children's relation slots.
		for i := plan.NumJoinOps; i < plan.NumJoinOps+2*f.Catalog.NumRelations(); i++ {
			if left.tree.Data[i] > 0 || right.tree.Data[i] > 0 {
				vec[i] = 1
			}
		}
		en.tree = treeconv.NewNode(vec, left.tree, right.tree)
	}
	if f.Cardinality != nil {
		en.card = f.Cardinality.NodeCardinality(e.q, n, left.card, right.card)
		en.est = en.card
		if f.Error != nil {
			en.est = f.Error.Perturb(en.card)
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
	e.memo[n.Hash()] = en
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
func (h *HistogramCardinality) NodeCardinality(q *query.Query, n *plan.Node, left, right float64) float64 {
	if n.IsLeaf() {
		return h.Stats.EstimateScanRows(n.Table, q.PredicatesOn(n.Table))
	}
	join, ok := plan.JoinBetween(q, n.Left, n.Right)
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
func (t *TrueCardinality) NodeCardinality(q *query.Query, n *plan.Node, _, _ float64) float64 {
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

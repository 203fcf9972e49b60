// Package expert implements the classical, non-learned optimizers of the
// reproduction: Selinger-style dynamic programming over join orders with
// histogram-based cardinality estimation, operator and access-path selection
// against an engine's cost model, plus a random baseline.
//
// These optimizers play three roles, mirroring the paper:
//
//   - the PostgreSQL-profile optimizer is the *expert* whose plans bootstrap
//     Neo's value network (learning from demonstration, Section 2);
//   - each engine's *native* optimizer is the baseline Neo must match or
//     beat (Figures 9 and 10);
//   - the random planner is the no-demonstration ablation (Section 6.3.3).
package expert

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"neo/internal/engine"
	"neo/internal/executor"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/schema"
	"neo/internal/stats"
)

// Estimator supplies the cardinality estimates a classical optimizer plans
// with. Implementations range from pure histogram estimates (PostgreSQL-like)
// to partially corrected estimates (commercial-like).
type Estimator interface {
	// ScanRows estimates the output cardinality of scanning table with the
	// given predicates applied.
	ScanRows(table string, preds []query.Predicate) float64
	// JoinRows estimates the cardinality of joining two inputs connected by
	// the given join predicates.
	JoinRows(leftRows, rightRows float64, joins []query.JoinPredicate) float64
	// BaseRows returns the total row count of a table.
	BaseRows(table string) float64
}

// HistogramEstimator estimates cardinalities from per-column histograms with
// uniformity and independence assumptions (the PostgreSQL-style estimator).
type HistogramEstimator struct {
	Stats *stats.Stats
}

// ScanRows implements Estimator.
func (h *HistogramEstimator) ScanRows(table string, preds []query.Predicate) float64 {
	return h.Stats.EstimateScanRows(table, preds)
}

// JoinRows implements Estimator.
func (h *HistogramEstimator) JoinRows(leftRows, rightRows float64, joins []query.JoinPredicate) float64 {
	if len(joins) == 0 {
		return math.Max(1, leftRows*rightRows)
	}
	est := h.Stats.EstimateJoinRows(leftRows, rightRows, joins[0])
	// Additional join predicates multiply in their selectivities under
	// independence.
	for _, j := range joins[1:] {
		extra := h.Stats.EstimateJoinRows(leftRows, rightRows, j)
		denom := leftRows * rightRows
		if denom > 0 {
			est *= math.Max(extra/denom, 1e-9)
		}
	}
	return math.Max(1, est)
}

// BaseRows implements Estimator.
func (h *HistogramEstimator) BaseRows(table string) float64 { return h.Stats.TableRows(table) }

// CorrectedEstimator improves on the histogram estimator by using exact
// single-table selectivities and sampling-corrected pairwise join
// selectivities, standing in for the richer statistics machinery of
// commercial optimizers. Quality in [0,1] blends between pure histogram
// estimates (0) and corrected estimates (1).
type CorrectedEstimator struct {
	Histogram *HistogramEstimator
	Exec      *executor.Executor
	Quality   float64
}

// NewCorrectedEstimator builds a corrected estimator of the given quality.
func NewCorrectedEstimator(h *HistogramEstimator, exec *executor.Executor, quality float64) *CorrectedEstimator {
	return &CorrectedEstimator{Histogram: h, Exec: exec, Quality: quality}
}

// ScanRows implements Estimator.
func (c *CorrectedEstimator) ScanRows(table string, preds []query.Predicate) float64 {
	hist := c.Histogram.ScanRows(table, preds)
	sel, err := c.Exec.Selectivity(table, preds)
	if err != nil {
		return hist
	}
	return blend(hist, math.Max(1, sel*c.Histogram.BaseRows(table)), c.Quality)
}

// JoinRows implements Estimator.
func (c *CorrectedEstimator) JoinRows(leftRows, rightRows float64, joins []query.JoinPredicate) float64 {
	return c.Histogram.JoinRows(leftRows, rightRows, joins)
}

// BaseRows implements Estimator.
func (c *CorrectedEstimator) BaseRows(table string) float64 { return c.Histogram.BaseRows(table) }

func blend(a, b, q float64) float64 {
	q = math.Max(0, math.Min(1, q))
	return a*(1-q) + b*q
}

// Config controls the search space of the classical optimizer.
type Config struct {
	// Bushy enables bushy join trees; otherwise only left-deep trees are
	// considered (PostgreSQL- and SQLite-like behaviour).
	Bushy bool
	// JoinOps restricts the physical join operators considered. Empty means
	// all operators.
	JoinOps []plan.JoinOp
}

// Optimizer is a Selinger-style cost-based optimizer: dynamic programming
// over relation subsets, with operator and access-path selection priced by
// the target engine's cost model using the Estimator's cardinalities.
// Optimize writes no shared state (nor do this package's estimators), so
// goroutines may share one Optimizer.
type Optimizer struct {
	Engine  *engine.Engine
	Est     Estimator
	Catalog *schema.Catalog
	Config  Config
}

// NewOptimizer builds an optimizer for the given engine, estimator and
// catalog.
func NewOptimizer(eng *engine.Engine, est Estimator, cat *schema.Catalog, cfg Config) *Optimizer {
	return &Optimizer{Engine: eng, Est: est, Catalog: cat, Config: cfg}
}

// memoEntry is the best plan found for one subset of relations.
type memoEntry struct {
	node  *plan.Node
	stats map[*plan.Node]*executor.NodeStats
	rows  float64
	cost  float64
}

// Optimize returns the cheapest complete plan the optimizer can find for q
// under its configuration, together with its estimated cost.
func (o *Optimizer) Optimize(q *query.Query) (*plan.Plan, float64, error) {
	if err := q.Validate(o.Catalog); err != nil {
		return nil, 0, fmt.Errorf("expert: %w", err)
	}
	n := len(q.Relations)
	if n > 20 {
		return nil, 0, fmt.Errorf("expert: query %s has too many relations (%d) for exhaustive optimization", q.ID, n)
	}
	ops := o.Config.JoinOps
	if len(ops) == 0 {
		ops = plan.AllJoinOps
	}

	// Base cases: single relations with the best access path.
	memo := make(map[uint32]*memoEntry, 1<<uint(n))
	for i, rel := range q.Relations {
		memo[1<<uint(i)] = o.bestScan(q, rel)
	}

	full := uint32(1<<uint(n)) - 1
	for size := 2; size <= n; size++ {
		for set := uint32(1); set <= full; set++ {
			if bits.OnesCount32(set) != size {
				continue
			}
			var best *memoEntry
			consider := func(leftSet, rightSet uint32) {
				left, lok := memo[leftSet]
				right, rok := memo[rightSet]
				if !lok || !rok {
					return
				}
				joins := q.JoinsBetween(tableSet(q, leftSet), tableSet(q, rightSet))
				if len(joins) == 0 {
					return
				}
				for _, op := range ops {
					cand := o.joinEntries(q, left, right, op, joins)
					if best == nil || cand.cost < best.cost {
						best = cand
					}
				}
			}
			if o.Config.Bushy {
				// Enumerate every split of the subset into two non-empty parts.
				for sub := (set - 1) & set; sub > 0; sub = (sub - 1) & set {
					other := set &^ sub
					if sub > other {
						continue // each unordered split once; joinEntries tries both orientations
					}
					consider(sub, other)
					consider(other, sub)
				}
			} else {
				// Left-deep: the right side is always a single relation.
				for i := 0; i < n; i++ {
					bit := uint32(1) << uint(i)
					if set&bit == 0 {
						continue
					}
					rest := set &^ bit
					if rest == 0 {
						continue
					}
					consider(rest, bit)
					consider(bit, rest)
				}
			}
			if best != nil {
				memo[set] = best
			}
		}
	}

	final, ok := memo[full]
	if !ok {
		return nil, 0, fmt.Errorf("expert: no plan found for query %s", q.ID)
	}
	return &plan.Plan{Query: q, Roots: []*plan.Node{final.node}}, final.cost, nil
}

// bestScan picks the cheaper of a table scan and an index scan (when usable)
// for one relation.
func (o *Optimizer) bestScan(q *query.Query, rel string) *memoEntry {
	preds := q.PredicatesOn(rel)
	rows := o.Est.ScanRows(rel, preds)
	base := o.Est.BaseRows(rel)
	mkEntry := func(scan plan.ScanType) *memoEntry {
		node := plan.Leaf(rel, scan)
		ns := &executor.NodeStats{
			OutputRows:  rows,
			BaseRows:    base,
			Selectivity: rows / math.Max(base, 1),
		}
		for _, p := range preds {
			if p.Op == query.Eq && o.Catalog.HasIndex(rel, p.Column) {
				ns.IndexOnPredicate = true
			}
		}
		m := map[*plan.Node]*executor.NodeStats{node: ns}
		return &memoEntry{node: node, stats: m, rows: rows, cost: o.Engine.CostResult(node, m)}
	}
	best := mkEntry(plan.TableScan)
	if o.indexUsable(q, rel) {
		if idx := mkEntry(plan.IndexScan); idx.cost < best.cost {
			best = idx
		}
	}
	return best
}

func (o *Optimizer) indexUsable(q *query.Query, rel string) bool {
	for _, j := range q.Joins {
		if j.LeftTable == rel && o.Catalog.HasIndex(rel, j.LeftColumn) {
			return true
		}
		if j.RightTable == rel && o.Catalog.HasIndex(rel, j.RightColumn) {
			return true
		}
	}
	for _, p := range q.Predicates {
		if p.Table == rel && o.Catalog.HasIndex(rel, p.Column) {
			return true
		}
	}
	return false
}

// joinEntries combines two memo entries with a join operator and prices the
// result.
func (o *Optimizer) joinEntries(q *query.Query, left, right *memoEntry, op plan.JoinOp, joins []query.JoinPredicate) *memoEntry {
	node := plan.Join2(op, left.node, right.node)
	outRows := o.Est.JoinRows(left.rows, right.rows, joins)
	ns := &executor.NodeStats{
		LeftRows:     left.rows,
		RightRows:    right.rows,
		OutputRows:   outRows,
		CrossProduct: len(joins) == 0,
	}
	if len(joins) > 0 {
		j := joins[0]
		// Sortedness approximation: a base-relation leaf is sorted on its
		// primary key.
		ns.LeftSorted = leafSortedOn(left.node, o.Catalog, j)
		ns.RightSorted = leafSortedOn(right.node, o.Catalog, j)
		if right.node.IsLeaf() && right.node.Scan == plan.IndexScan {
			col := joinColumnFor(j, right.node.Table)
			if col != "" && o.Catalog.HasIndex(right.node.Table, col) {
				ns.InnerIndexOnJoinKey = true
			}
		}
	}
	// Merge the child stats maps (they are disjoint by construction).
	m := make(map[*plan.Node]*executor.NodeStats, len(left.stats)+len(right.stats)+1)
	for k, v := range left.stats {
		m[k] = v
	}
	for k, v := range right.stats {
		m[k] = v
	}
	m[node] = ns
	return &memoEntry{node: node, stats: m, rows: outRows, cost: o.Engine.CostResult(node, m)}
}

func leafSortedOn(n *plan.Node, cat *schema.Catalog, j query.JoinPredicate) bool {
	if !n.IsLeaf() {
		return false
	}
	tab, ok := cat.Table(n.Table)
	if !ok || tab.PrimaryKey == "" {
		return false
	}
	return joinColumnFor(j, n.Table) == tab.PrimaryKey
}

func joinColumnFor(j query.JoinPredicate, table string) string {
	if j.LeftTable == table {
		return j.LeftColumn
	}
	if j.RightTable == table {
		return j.RightColumn
	}
	return ""
}

// tableSet converts a relation bitmask into a set of table names.
func tableSet(q *query.Query, set uint32) map[string]bool {
	out := make(map[string]bool)
	for i, rel := range q.Relations {
		if set&(1<<uint(i)) != 0 {
			out[rel] = true
		}
	}
	return out
}

// NativeConfig returns the (optimizer configuration, estimator quality) pair
// used for each engine's native optimizer in the experiments:
// PostgreSQL and SQLite plan left-deep trees with histogram statistics
// (SQLite additionally only uses loop joins), while the commercial engines
// consider bushy trees and use corrected statistics.
func NativeConfig(engineName string) (Config, float64) {
	switch engineName {
	case "sqlite":
		return Config{Bushy: false, JoinOps: []plan.JoinOp{plan.LoopJoin, plan.MergeJoin}}, 0.0
	case "engine-m":
		return Config{Bushy: true}, 0.8
	case "engine-o":
		return Config{Bushy: true}, 0.8
	default: // postgres
		return Config{Bushy: false}, 0.0
	}
}

// NativeOptimizer builds the native optimizer for an engine, using the
// engine's own cost model and the statistics quality appropriate to it.
func NativeOptimizer(eng *engine.Engine, st *stats.Stats, cat *schema.Catalog) *Optimizer {
	cfg, quality := NativeConfig(eng.Profile.Name)
	hist := &HistogramEstimator{Stats: st}
	var est Estimator = hist
	// Corrected estimation probes true selectivities through the in-memory
	// executor; only the sim backend exposes one, and only the high-quality
	// commercial profiles use it.
	if exec := eng.Executor(); quality > 0 && exec != nil {
		est = NewCorrectedEstimator(hist, exec, quality)
	}
	return NewOptimizer(eng, est, cat, cfg)
}

// RandomPlanner produces uniformly random complete plans; the
// no-demonstration ablation (Section 6.3.3) bootstraps from these instead of
// expert plans.
type RandomPlanner struct {
	Catalog *schema.Catalog
	Rng     *rand.Rand
}

// NewRandomPlanner creates a random planner with the given seed.
func NewRandomPlanner(cat *schema.Catalog, seed int64) *RandomPlanner {
	return &RandomPlanner{Catalog: cat, Rng: rand.New(rand.NewSource(seed))}
}

// Plan returns a random complete plan for the query: a random join order
// over connected subtrees with random operators and access paths, drawn from
// a fresh node table.
func (r *RandomPlanner) Plan(q *query.Query) *plan.Plan {
	nodes := plan.NewNodes()
	p := plan.Initial(q, nodes)
	opts := plan.ChildrenOptions{Catalog: r.Catalog}
	var edits []plan.Edit
	for !p.IsComplete() {
		edits = p.Edits(nodes, opts, edits[:0])
		if len(edits) == 0 {
			edits = p.Edits(nodes, plan.ChildrenOptions{Catalog: r.Catalog, AllowCrossProducts: true}, edits)
			if len(edits) == 0 {
				return p
			}
		}
		p = p.Apply(edits[r.Rng.Intn(len(edits))])
	}
	return p
}

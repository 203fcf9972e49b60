// Package search implements Neo's DNN-guided plan search (Section 4.2 of the
// paper): a best-first search over the space of partial execution plans,
// ordered by the value network's cost predictions, with an anytime budget and
// a greedy "hurry-up" fallback when the budget expires before a complete
// plan has been found.
package search

import (
	"fmt"
	"math"
	"time"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/schema"
)

// BatchScorer predicts the best-possible cost reachable from each of a slice
// of (partial) plans in one call. It is the primary scoring contract of the
// search: all children of an expanded node are scored together, so an
// implementation backed by a neural network (Neo's value network) can
// amortise one forward pass across the whole expansion instead of paying a
// full per-sample pass per child. ScoreBatch returns one score per plan, in
// order.
type BatchScorer interface {
	ScoreBatch(ps []*plan.Plan) []float64
}

// NodeScorer is a BatchScorer that indexes what it scores by a plan.Nodes
// table of its own, as core's value-network scorer does. A search draws its
// states from the scorer's table, so every node the scorer is shown is
// already one of its table's; with any other scorer the search makes a fresh
// table.
type NodeScorer interface {
	BatchScorer
	Nodes() *plan.Nodes
}

// nodesFor returns the table a search with scorer s draws its states from.
func nodesFor(s BatchScorer) *plan.Nodes {
	if ns, ok := s.(NodeScorer); ok {
		return ns.Nodes()
	}
	return plan.NewNodes()
}

// ScorerFunc adapts a per-plan scoring function to BatchScorer, scoring
// batch members one at a time.
type ScorerFunc func(p *plan.Plan) float64

// ScoreBatch implements BatchScorer sequentially.
func (f ScorerFunc) ScoreBatch(ps []*plan.Plan) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// scoreBatch invokes the scorer and enforces its contract: one score per
// plan — a misbehaving BatchScorer becomes a diagnosable failure instead of
// an opaque index panic deep in the search — and scores that order. A NaN
// (a network whose weights or activations overflowed) is read as +Inf: every
// comparison against NaN is false, so a NaN-scored plan would otherwise keep
// a place it was never compared for — the first complete plan seen stays
// "best" against any finite score. As +Inf it sinks in the frontier and loses
// to every plan with a real score.
func scoreBatch(s BatchScorer, ps []*plan.Plan) []float64 {
	scores := s.ScoreBatch(ps)
	if len(scores) != len(ps) {
		panic(fmt.Sprintf("search: BatchScorer returned %d scores for %d plans", len(scores), len(ps)))
	}
	for i, v := range scores {
		if math.IsNaN(v) {
			scores[i] = math.Inf(1)
		}
	}
	return scores
}

// Options configures a search.
type Options struct {
	// Catalog restricts index-scan children to relations with usable
	// indexes.
	Catalog *schema.Catalog
	// MaxExpansions bounds the number of nodes popped from the frontier; it
	// is the machine-independent analogue of the paper's wall-clock cutoff
	// (250 ms ≈ a few hundred expansions for the network sizes used here).
	MaxExpansions int
	// TimeBudget optionally bounds wall-clock search time; zero means no
	// wall-clock limit.
	TimeBudget time.Duration
	// AllowCrossProducts permits joining disconnected subtrees.
	AllowCrossProducts bool
}

// Result reports the outcome of a search.
type Result struct {
	// Plan is the best complete plan found.
	Plan *plan.Plan
	// Score is the scorer's estimate for that plan.
	Score float64
	// Expansions is the number of plan states whose children were generated:
	// incomplete frontier nodes popped by the best-first loop, plus greedy
	// descent steps taken when hurry-up mode (or Greedy) builds the plan —
	// so search effort is reported faithfully even when the budget expires.
	// Popping an already-complete plan generates no children and is not
	// counted (downstream consumers — /stats, the query router's regret
	// accounting — read this as real search effort).
	Expansions int
	// Evaluations is the number of plans scored (summed over ScoreBatch
	// calls).
	Evaluations int
	// HurryUp reports whether the greedy fallback produced the plan.
	HurryUp bool
	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
}

// frontierItem is one entry of the priority queue.
type frontierItem struct {
	plan  *plan.Plan
	score float64
}

// frontier is a binary min-heap on score. push and pop sift exactly as
// container/heap does — among equal scores the sift order decides which plan
// is expanded next, so plan choice depends on it — without boxing each item
// in an interface.
type frontier []frontierItem

func (f *frontier) push(it frontierItem) {
	h := append(*f, it)
	*f = h
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].score < h[i].score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (f *frontier) pop() frontierItem {
	h := *f
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].score < h[j].score {
			j++
		}
		if !(h[j].score < h[i].score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	h[n] = frontierItem{}
	*f = h[:n]
	return it
}

// maxSeenHint caps the size BestFirst presizes its set of seen states for.
const maxSeenHint = 1 << 14

// BestFirst runs the DNN-guided best-first search of Section 4.2 and returns
// the best complete plan found within the budget. The search is anytime:
// when the budget expires it returns the best complete plan seen so far, or
// — if none has been completed yet — enters "hurry-up" mode and greedily
// descends from the most promising frontier node.
func BestFirst(q *query.Query, scorer BatchScorer, opts Options) (*Result, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("search: query %s has no relations", q.ID)
	}
	if opts.MaxExpansions <= 0 {
		opts.MaxExpansions = 512
	}
	start := time.Now()
	childOpts := plan.ChildrenOptions{Catalog: opts.Catalog, AllowCrossProducts: opts.AllowCrossProducts}
	nodes := nodesFor(scorer)

	res := &Result{}
	initial := plan.Initial(q, nodes)
	var f frontier
	res.Evaluations++
	f.push(frontierItem{plan: initial, score: scoreBatch(scorer, []*plan.Plan{initial})[0]})
	// Sized for the states a full budget reaches: an expansion yields at
	// most two scan choices plus six joins per linked pair of roots, about
	// half of that on average over a search. The cap keeps a budget that is
	// really a wall-clock limit from sizing it for a million expansions.
	seen := make(map[[2]uint64]struct{}, min(opts.MaxExpansions*(1+3*len(q.Joins)), maxSeenHint))
	seen[initial.Hash()] = struct{}{}

	var bestComplete *plan.Plan
	bestScore := 0.0
	var lastExpanded *plan.Plan = initial

	// The expansion budget counts frontier pops (as documented on
	// Options.MaxExpansions — the machine-independent analogue of the
	// paper's wall-clock cutoff), while Result.Expansions reports only pops
	// that actually generated children: popping an already-complete plan is
	// budgeted work, but it is not search effort.
	popped := 0
	budgetExceeded := func() bool {
		if popped >= opts.MaxExpansions {
			return true
		}
		if opts.TimeBudget > 0 && time.Since(start) > opts.TimeBudget {
			return true
		}
		return false
	}

	var batch []*plan.Plan // reused across expansions
	// The loop condition re-evaluates the deadline immediately after each
	// batched scoring call (the last work of an iteration), so one large
	// batch overshoots the anytime budget by at most that single call, never
	// by another expansion.
	for len(f) > 0 && !budgetExceeded() {
		item := f.pop()
		popped++
		if item.plan.IsComplete() {
			if bestComplete == nil || item.score < bestScore {
				bestComplete = item.plan
				bestScore = item.score
			}
			// The frontier is ordered by predicted cost, so the first
			// complete plan popped is the search's best guess; continuing
			// (anytime behaviour) can still improve it within the budget.
			// Popping it generates no children, so it does not count as an
			// expansion.
			continue
		}
		res.Expansions++
		lastExpanded = item.plan
		// Score every not-yet-seen child of this expansion in a single
		// batched call (the paper evaluates the value network on all children
		// of a node at once to amortise inference latency).
		batch = batch[:0]
		for _, child := range item.plan.Children(nodes, childOpts) {
			h := child.Hash()
			if _, dup := seen[h]; dup {
				continue
			}
			seen[h] = struct{}{}
			batch = append(batch, child)
		}
		if len(batch) == 0 {
			continue
		}
		scores := scoreBatch(scorer, batch)
		res.Evaluations += len(batch)
		for i, child := range batch {
			score := scores[i]
			if child.IsComplete() && (bestComplete == nil || score < bestScore) {
				bestComplete = child
				bestScore = score
			}
			f.push(frontierItem{plan: child, score: score})
		}
	}

	if bestComplete == nil {
		// Hurry-up mode: greedily descend from the most promising frontier
		// node — the node the loop would have expanded next had the budget
		// allowed — rather than only from the last node it happened to pop.
		// Descending from the stale pop can silently discard a strictly
		// cheaper frontier, but the frontier top alone is not reliably better
		// (its optimistic score often favours shallow states), so both
		// descents run and the better-scored complete plan wins. The
		// descents' steps count as expansions so the budget's expiry does
		// not erase the effort actually spent.
		res.HurryUp = true
		hp, score, evals, steps := greedyDescend(lastExpanded, scorer, nodes, childOpts)
		res.Evaluations += evals
		res.Expansions += steps
		// The first descent is mandatory — without it there is no plan at all
		// — but the second is an opportunistic improvement, so it is skipped
		// when the wall-clock deadline has already passed: a wide query would
		// otherwise overshoot the anytime budget by a second full descent.
		deadlinePassed := opts.TimeBudget > 0 && time.Since(start) > opts.TimeBudget
		if !deadlinePassed && len(f) > 0 && f[0].plan != lastExpanded {
			fp, fscore, fevals, fsteps := greedyDescend(f[0].plan, scorer, nodes, childOpts)
			res.Evaluations += fevals
			res.Expansions += fsteps
			if fp != nil && fp.IsComplete() && (hp == nil || !hp.IsComplete() || fscore < score) {
				hp, score = fp, fscore
			}
		}
		bestComplete = hp
		bestScore = score
	}
	if bestComplete == nil || !bestComplete.IsComplete() {
		return nil, fmt.Errorf("search: no complete plan found for query %s", q.ID)
	}
	res.Plan = bestComplete.Clone()
	res.Score = bestScore
	res.Elapsed = time.Since(start)
	return res, nil
}

// Greedy builds a plan by always taking the child with the best predicted
// cost, without maintaining a frontier. This is the paper's "hurry-up" mode
// applied from the start, and is equivalent to the greedy action selection
// of Q-learning-style approaches (DQ); the ablation benchmarks compare it
// against the full best-first search.
func Greedy(q *query.Query, scorer BatchScorer, opts Options) (*Result, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("search: query %s has no relations", q.ID)
	}
	start := time.Now()
	childOpts := plan.ChildrenOptions{Catalog: opts.Catalog, AllowCrossProducts: opts.AllowCrossProducts}
	nodes := nodesFor(scorer)
	p, score, evals, steps := greedyDescend(plan.Initial(q, nodes), scorer, nodes, childOpts)
	if p == nil || !p.IsComplete() {
		return nil, fmt.Errorf("search: greedy descent failed for query %s", q.ID)
	}
	return &Result{Plan: p.Clone(), Score: score, Expansions: steps, Evaluations: evals, HurryUp: true, Elapsed: time.Since(start)}, nil
}

// greedyDescend repeatedly takes the lowest-scoring child until reaching a
// complete plan, scoring each level's children in one batched call, and
// reports the number of descent steps taken (each step expands one plan
// state, so callers fold it into Result.Expansions). A starting plan that is
// already complete (e.g. single-relation queries in hurry-up mode) takes no
// descent step, so it is scored directly to keep the returned score
// meaningful; otherwise the first step's scores overwrite it and the
// up-front evaluation is skipped.
func greedyDescend(p *plan.Plan, scorer BatchScorer, nodes *plan.Nodes, opts plan.ChildrenOptions) (*plan.Plan, float64, int, int) {
	cur := p
	curScore := 0.0
	evals := 0
	steps := 0
	if p.IsComplete() {
		curScore = scoreBatch(scorer, []*plan.Plan{p})[0]
		evals = 1
	}
	for !cur.IsComplete() {
		kids := cur.Children(nodes, opts)
		if len(kids) == 0 && !opts.AllowCrossProducts {
			// Dead end: no connected join exists at this level. Retry this
			// one level with cross products allowed, without flipping the
			// option for the rest of the descent — later levels must keep
			// preferring connected joins and pay the cross-product penalty
			// only where they are genuinely stuck.
			xOpts := opts
			xOpts.AllowCrossProducts = true
			kids = cur.Children(nodes, xOpts)
		}
		if len(kids) == 0 {
			return nil, 0, evals, steps
		}
		scores := scoreBatch(scorer, kids)
		evals += len(kids)
		steps++
		best, bestScore := kids[0], scores[0]
		for i, k := range kids[1:] {
			if scores[i+1] < bestScore {
				best, bestScore = k, scores[i+1]
			}
		}
		cur, curScore = best, bestScore
	}
	return cur, curScore, evals, steps
}

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
// already one of its table's, and has it score an expansion's children as
// edits of the expanded state, without building them. With any other scorer
// the search makes a fresh table and builds the children it scores.
type NodeScorer interface {
	BatchScorer
	Nodes() *plan.Nodes
	// ScoreEdits returns one score per edit, in order: what ScoreBatch
	// returns for the children p.Apply(e). The search is done with the
	// slice by its next call, which may reuse it.
	ScoreEdits(p *plan.Plan, edits []plan.Edit) []float64
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

// scoring is a search's side of its BatchScorer: the table the search draws
// its states from, and the scoring of an expansion's children.
type scoring struct {
	BatchScorer
	nodes *plan.Nodes
	edits NodeScorer   // the scorer, if it scores edits
	batch []*plan.Plan // the children built for any other, reused
}

func newScoring(s BatchScorer) *scoring {
	if ns, ok := s.(NodeScorer); ok {
		return &scoring{BatchScorer: s, nodes: ns.Nodes(), edits: ns}
	}
	return &scoring{BatchScorer: s, nodes: plan.NewNodes()}
}

// scoreEdits scores the children of p that edits name, in one call: as edits
// if the scorer takes them, else built and scored as a batch.
func (s *scoring) scoreEdits(p *plan.Plan, edits []plan.Edit) []float64 {
	if s.edits != nil {
		return checked(s.edits.ScoreEdits(p, edits), len(edits))
	}
	s.batch = s.batch[:0]
	for _, e := range edits {
		s.batch = append(s.batch, p.Apply(e))
	}
	scores := scoreBatch(s, s.batch)
	clear(s.batch)
	return scores
}

// scoreBatch invokes the scorer and checks what it returns.
func scoreBatch(s BatchScorer, ps []*plan.Plan) []float64 {
	return checked(s.ScoreBatch(ps), len(ps))
}

// checked enforces a scorer's contract on the scores it returned for n
// plans: one score per plan — a misbehaving BatchScorer becomes a
// diagnosable failure instead of an opaque index panic deep in the search —
// and scores that order. A NaN (a network whose weights or activations
// overflowed) is read as +Inf: every comparison against NaN is false, so a
// NaN-scored plan would otherwise keep a place it was never compared for —
// the first complete plan seen stays "best" against any finite score. As
// +Inf it sinks in the frontier and loses to every plan with a real score.
func checked(scores []float64, n int) []float64 {
	if len(scores) != n {
		panic(fmt.Sprintf("search: BatchScorer returned %d scores for %d plans", len(scores), n))
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

// entry is one state in the frontier: the child that edit (i, j, node id
// node) makes of expanded state parent — the initial state when parent is
// −1 — with its score. The state is built only when it is expanded or
// returned. An entry holds no pointer, so sifting it costs no write barrier.
type entry struct {
	score        float64
	parent, node int32
	i, j         int32
}

// frontier is a binary min-heap on score. push and pop sift exactly as
// container/heap does — among equal scores the sift order decides which plan
// is expanded next, so plan choice depends on it — without boxing each item
// in an interface.
type frontier []entry

func (f *frontier) push(it entry) {
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

func (f *frontier) pop() entry {
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
	*f = h[:n]
	return it
}

// hashSet is a set of plan hashes, open-addressed and probed linearly from
// the hash's first lane. The zero hash marks a free slot, so it reads as a
// member: as likely as two plans sharing a hash.
type hashSet struct {
	slots [][2]uint64 // a power of two of them
	n     int
}

// newHashSet returns a set that holds hint hashes before it grows.
func newHashSet(hint int) *hashSet {
	size := 16
	for size*3 < hint*4 {
		size *= 2
	}
	return &hashSet{slots: make([][2]uint64, size)}
}

// add adds h and reports whether it was new.
func (s *hashSet) add(h [2]uint64) bool {
	if 4*(s.n+1) > 3*len(s.slots) {
		old := s.slots
		s.slots, s.n = make([][2]uint64, 2*len(old)), 0
		for _, o := range old {
			if o != [2]uint64{} {
				s.add(o)
			}
		}
	}
	mask := uint64(len(s.slots) - 1)
	for i := h[0] & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case h:
			return false
		case [2]uint64{}:
			s.slots[i] = h
			s.n++
			return true
		}
	}
}

// maxSeenHint caps the size BestFirst presizes its set of seen states for.
const maxSeenHint = 1 << 14

// BestFirst runs the DNN-guided best-first search of Section 4.2 and returns
// the best complete plan found within the budget. The search is anytime:
// when the budget expires it returns the best complete plan seen so far, or
// — if none has been completed yet — enters "hurry-up" mode and greedily
// descends from the most promising frontier node.
//
// The frontier holds edits of expanded states, not plans: a child is scored
// from its parent and its edit, and becomes a plan only when it is expanded
// or returned.
func BestFirst(q *query.Query, scorer BatchScorer, opts Options) (*Result, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("search: query %s has no relations", q.ID)
	}
	if opts.MaxExpansions <= 0 {
		opts.MaxExpansions = 512
	}
	start := time.Now()
	childOpts := plan.ChildrenOptions{Catalog: opts.Catalog, AllowCrossProducts: opts.AllowCrossProducts}
	sc := newScoring(scorer)
	nodes := sc.nodes
	// Sized for the states a full budget reaches: an expansion yields at
	// most two scan choices plus six joins per linked pair of roots, about
	// half of that on average over a search. The cap keeps a budget that is
	// really a wall-clock limit from sizing it for a million expansions.
	hint := min(opts.MaxExpansions*(1+3*len(q.Joins)), maxSeenHint)
	// A search meets about three new subtrees per expansion (348–1 179 at
	// 256 expansions of five-join queries).
	nodes.Reserve(min(3*opts.MaxExpansions, maxSeenHint))

	res := &Result{}
	initial := plan.Initial(q, nodes)
	// states[k] is the k-th state expanded, the parent of its entries.
	states := make([]*plan.Plan, 0, min(opts.MaxExpansions, maxSeenHint))
	edit := func(e entry) plan.Edit { return plan.Edit{I: e.i, J: e.j, Node: nodes.Node(e.node)} }
	state := func(e entry) *plan.Plan {
		if e.parent < 0 {
			return initial
		}
		return states[e.parent].Apply(edit(e))
	}
	complete := func(e entry) bool { return e.parent >= 0 && edit(e).Completes(states[e.parent]) }
	f := make(frontier, 0, hint)
	res.Evaluations++
	f.push(entry{score: scoreBatch(scorer, []*plan.Plan{initial})[0], parent: -1})
	seen := newHashSet(hint)
	seen.add(initial.Hash())

	var best entry // the best complete state, if found
	found := false
	lastExpanded := initial

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

	var edits []plan.Edit // reused across expansions
	// The loop condition re-evaluates the deadline immediately after each
	// batched scoring call (the last work of an iteration), so one large
	// batch overshoots the anytime budget by at most that single call, never
	// by another expansion.
	for len(f) > 0 && !budgetExceeded() {
		it := f.pop()
		popped++
		if complete(it) {
			if !found || it.score < best.score {
				best, found = it, true
			}
			// The frontier is ordered by predicted cost, so the first
			// complete plan popped is the search's best guess; continuing
			// (anytime behaviour) can still improve it within the budget.
			// Popping it generates no children, so it does not count as an
			// expansion.
			continue
		}
		res.Expansions++
		p := state(it)
		lastExpanded = p
		parent := int32(len(states))
		states = append(states, p)
		// Score every not-yet-seen child of this expansion in a single
		// batched call (the paper evaluates the value network on all children
		// of a node at once to amortise inference latency).
		h := p.Hash()
		edits = p.Edits(nodes, childOpts, edits[:0])
		batch := edits[:0]
		for _, e := range edits {
			if seen.add(p.EditHash(h, e)) {
				batch = append(batch, e)
			}
		}
		if len(batch) == 0 {
			continue
		}
		scores := sc.scoreEdits(p, batch)
		res.Evaluations += len(batch)
		for i, e := range batch {
			child := entry{score: scores[i], parent: parent, node: nodes.ID(e.Node), i: e.I, j: e.J}
			if e.Completes(p) && (!found || child.score < best.score) {
				best, found = child, true
			}
			f.push(child)
		}
	}

	var bestComplete *plan.Plan
	bestScore := best.score
	if found {
		bestComplete = state(best)
	} else {
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
		hp, score, evals, steps := greedyDescend(lastExpanded, sc, childOpts)
		res.Evaluations += evals
		res.Expansions += steps
		// The first descent is mandatory — without it there is no plan at all
		// — but the second is an opportunistic improvement, so it is skipped
		// when the wall-clock deadline has already passed: a wide query would
		// otherwise overshoot the anytime budget by a second full descent.
		// The frontier's top is the last expanded state only while it is
		// the initial one, never popped.
		deadlinePassed := opts.TimeBudget > 0 && time.Since(start) > opts.TimeBudget
		if !deadlinePassed && len(f) > 0 && f[0].parent >= 0 {
			fp, fscore, fevals, fsteps := greedyDescend(state(f[0]), sc, childOpts)
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
	res.Plan = bestComplete
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
	sc := newScoring(scorer)
	p, score, evals, steps := greedyDescend(plan.Initial(q, sc.nodes), sc, childOpts)
	if p == nil || !p.IsComplete() {
		return nil, fmt.Errorf("search: greedy descent failed for query %s", q.ID)
	}
	return &Result{Plan: p, Score: score, Expansions: steps, Evaluations: evals, HurryUp: true, Elapsed: time.Since(start)}, nil
}

// greedyDescend repeatedly takes the lowest-scoring child until reaching a
// complete plan, scoring each level's children in one batched call, and
// reports the number of descent steps taken (each step expands one plan
// state, so callers fold it into Result.Expansions). A starting plan that is
// already complete (e.g. single-relation queries in hurry-up mode) takes no
// descent step, so it is scored directly to keep the returned score
// meaningful; otherwise the first step's scores overwrite it and the
// up-front evaluation is skipped.
func greedyDescend(p *plan.Plan, sc *scoring, opts plan.ChildrenOptions) (*plan.Plan, float64, int, int) {
	cur := p
	curScore := 0.0
	evals := 0
	steps := 0
	if p.IsComplete() {
		curScore = scoreBatch(sc, []*plan.Plan{p})[0]
		evals = 1
	}
	var edits []plan.Edit
	for !cur.IsComplete() {
		edits = cur.Edits(sc.nodes, opts, edits[:0])
		if len(edits) == 0 && !opts.AllowCrossProducts {
			// Dead end: no connected join exists at this level. Retry this
			// one level with cross products allowed, without flipping the
			// option for the rest of the descent — later levels must keep
			// preferring connected joins and pay the cross-product penalty
			// only where they are genuinely stuck.
			xOpts := opts
			xOpts.AllowCrossProducts = true
			edits = cur.Edits(sc.nodes, xOpts, edits)
		}
		if len(edits) == 0 {
			return nil, 0, evals, steps
		}
		scores := sc.scoreEdits(cur, edits)
		evals += len(edits)
		steps++
		best := 0
		for i := range edits[1:] {
			if scores[i+1] < scores[best] {
				best = i + 1
			}
		}
		cur, curScore = cur.Apply(edits[best]), scores[best]
	}
	return cur, curScore, evals, steps
}

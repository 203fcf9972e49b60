// Package core implements Neo itself: the experience store, the
// learning-from-demonstration bootstrap, the episodic reinforcement-learning
// refinement loop, and the glue between featurization, the value network and
// the DNN-guided plan search (Section 2 of the paper).
package core

import (
	"math"
	"slices"
	"sync"

	"neo/internal/plan"
	"neo/internal/query"
)

// Entry is one element of Neo's experience: a complete execution plan for a
// query together with its observed latency on the target engine.
type Entry struct {
	Query   *query.Query
	Plan    *plan.Plan
	Latency float64
}

// Experience is the set of executed plans Neo learns from (E in the paper).
type Experience struct {
	mu      sync.RWMutex
	entries []Entry // guarded by mu
}

// NewExperience creates an empty experience store.
func NewExperience() *Experience {
	return &Experience{}
}

// Add records a plan/latency pair.
func (e *Experience) Add(q *query.Query, p *plan.Plan, latency float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.entries = append(e.entries, Entry{Query: q, Plan: p, Latency: latency})
}

// Restore replaces the store's contents with the given entries (in order).
// Used when loading a checkpoint.
func (e *Experience) Restore(entries []Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.entries = append([]Entry(nil), entries...)
}

// Trim drops the oldest entries until at most keep remain. Long-running
// servers use it to bound the experience pool (and with it checkpoint size):
// recent entries reflect the current network's behaviour and matter most for
// the next retraining round.
func (e *Experience) Trim(keep int) {
	if keep < 0 {
		keep = 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.entries) <= keep {
		return
	}
	e.entries = append([]Entry(nil), e.entries[len(e.entries)-keep:]...)
}

// Len returns the number of stored entries.
func (e *Experience) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.entries)
}

// Entries returns a copy of all stored entries.
func (e *Experience) Entries() []Entry {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Entry, len(e.entries))
	copy(out, e.entries)
	return out
}

// targets answers min{C(Pf) | Pi ⊂ Pf ∧ Pf ∈ E} — the training target of
// the value network (Section 4) — over one snapshot of the experience, for
// the construction states of its entries. It holds, per query ID, the
// query's distinct complete plans (one per Plan.Hash), each with its least
// cost and the structural hashes of its subtrees.
//
// Every root of a construction state is an unspecified scan, which every
// plan of its query contains, or a fully specified subtree of its entry's
// plan. So a complete plan contains the state exactly when it has a subtree
// of each specified root's hash.
type targets map[string][]*candidate

// candidate is one distinct complete plan of a query.
type candidate struct {
	cost     float64     // least cost among its entries
	subtrees [][2]uint64 // Node.Hash of every subtree
}

// newTargets indexes entries, costing each with cost.
func newTargets(entries []Entry, cost func(Entry) float64) targets {
	type key struct {
		query string
		plan  [2]uint64
	}
	distinct := make(map[key]*candidate)
	t := make(targets)
	for _, e := range entries {
		k := key{e.Query.ID, e.Plan.Hash()}
		c, ok := distinct[k]
		if !ok {
			c = &candidate{cost: math.Inf(1)}
			for _, r := range e.Plan.Roots {
				c.subtrees = slices.Grow(c.subtrees, r.NumNodes())
				r.Walk(func(n *plan.Node) { c.subtrees = append(c.subtrees, n.Hash()) })
			}
			distinct[k] = c
			t[e.Query.ID] = append(t[e.Query.ID], c)
		}
		if v := cost(e); v < c.cost {
			c.cost = v
		}
	}
	return t
}

// of returns the target of the construction state s. The boolean reports
// whether any plan contains it.
func (t targets) of(s *plan.Plan) (float64, bool) {
	best, found := math.Inf(1), false
	for _, c := range t[s.Query.ID] {
		if c.cost < best && c.contains(s) {
			best, found = c.cost, true
		}
	}
	return best, found
}

// contains reports whether the candidate's plan contains the construction
// state s.
func (c *candidate) contains(s *plan.Plan) bool {
	for _, r := range s.Roots {
		if !(r.IsLeaf() && r.Scan == plan.UnspecifiedScan) && !slices.Contains(c.subtrees, r.Hash()) {
			return false
		}
	}
	return true
}

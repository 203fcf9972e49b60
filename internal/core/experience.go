// Package core implements Neo itself: the experience store, the
// learning-from-demonstration bootstrap, the episodic reinforcement-learning
// refinement loop, and the glue between featurization, the value network and
// the DNN-guided plan search (Section 2 of the paper).
package core

import (
	"math"
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
	entries []Entry          // guarded by mu
	byQuery map[string][]int // guarded by mu
}

// NewExperience creates an empty experience store.
func NewExperience() *Experience {
	return &Experience{byQuery: make(map[string][]int)}
}

// Add records a plan/latency pair.
func (e *Experience) Add(q *query.Query, p *plan.Plan, latency float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.entries = append(e.entries, Entry{Query: q, Plan: p, Latency: latency})
	e.byQuery[q.ID] = append(e.byQuery[q.ID], len(e.entries)-1)
}

// Restore replaces the store's contents with the given entries (in order),
// rebuilding the per-query index. Used when loading a checkpoint.
func (e *Experience) Restore(entries []Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.entries = append([]Entry(nil), entries...)
	e.rebuildLocked()
}

// rebuildLocked recomputes the per-query index from e.entries. Callers must
// hold e.mu.
func (e *Experience) rebuildLocked() {
	e.byQuery = make(map[string][]int)
	for i, entry := range e.entries {
		e.byQuery[entry.Query.ID] = append(e.byQuery[entry.Query.ID], i)
	}
}

// Trim drops the oldest entries until at most keep remain, rebuilding the
// per-query index from the survivors. Long-running servers use it to bound
// the experience pool (and with it checkpoint size): recent entries reflect
// the current network's behaviour and matter most for the next retraining
// round.
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
	e.rebuildLocked()
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

// MinCostContaining returns min{C(Pf) | Pi ⊂ Pf ∧ Pf ∈ E} — the training
// target of the value network (Section 4) — where the cost of an entry is
// produced by the supplied cost function. The boolean reports whether any
// containing plan exists.
func (e *Experience) MinCostContaining(pi *plan.Plan, cost func(Entry) float64) (float64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	best := math.Inf(1)
	found := false
	for _, idx := range e.byQuery[pi.Query.ID] {
		entry := e.entries[idx]
		if !pi.IsSubplanOf(entry.Plan) {
			continue
		}
		c := cost(entry)
		if c < best {
			best = c
			found = true
		}
	}
	return best, found
}

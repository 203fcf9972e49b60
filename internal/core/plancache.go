package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/search"
)

// PlanCacheStats reports the plan cache's effectiveness. The JSON tags serve
// neo-serve's /stats endpoint.
type PlanCacheStats struct {
	// Hits and Misses count OptimizeCached lookups over the process lifetime
	// (they survive snapshot swaps). A caller that waited on another caller's
	// in-flight search for the same structure counts as a hit.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Size is the number of plans the serving snapshot currently caches.
	Size int `json:"size"`
	// Version is the serving snapshot's version (see Neo.NetVersion).
	Version uint64 `json:"version"`
}

// planCacheMaxEntries bounds one snapshot's plan cache. Signatures embed
// predicate literals, so a long-running server planning templates with
// varying constants would otherwise grow the cache without limit between
// network swaps.
const planCacheMaxEntries = 4096

// planCounters are the hit/miss counters every snapshot's planCache shares,
// so /stats stays monotonic across swaps.
type planCounters struct {
	hits, misses atomic.Uint64
}

// planCache memoises plan searches keyed on the query's structural signature
// (Query.Signature) for exactly one netSnapshot: every entry was searched
// with that snapshot's weights, so nothing ever needs invalidating — a swap
// publishes a new snapshot with a new, empty cache and the old one is
// garbage once the searches still pinned to it return. Concurrent misses on
// one signature collapse into a single search (single-flight): the first
// caller searches, the rest wait on its entry.
type planCache struct {
	counters *planCounters

	mu      sync.Mutex
	entries map[string]*CachedPlan // guarded by mu
}

// CachedPlan is one plan-cache entry: the outcome of one search under one
// snapshot. plan, res and err are written by the searching caller before done
// is closed and are read-only afterwards.
type CachedPlan struct {
	done chan struct{}
	plan *plan.Plan
	res  *search.Result
	err  error

	// memo is the caller's per-entry slot (see Memo); core never looks
	// inside it.
	memo atomic.Value
}

var errSearchAborted = errors.New("core: plan search aborted")

// get returns the entry for sig once its search has finished, calling run
// to search when no entry exists. A failed search is handed to the callers
// already waiting on it and then forgotten, so the next request retries.
// When the cache is full an arbitrary entry is replaced (random replacement:
// cheap, and the whole cache dies with its snapshot anyway).
func (c *planCache) get(sig string, run func() (*plan.Plan, *search.Result, error)) *CachedPlan {
	c.mu.Lock()
	if e, ok := c.entries[sig]; ok {
		c.mu.Unlock()
		c.counters.hits.Add(1)
		<-e.done
		return e
	}
	if len(c.entries) >= planCacheMaxEntries {
		for victim := range c.entries {
			delete(c.entries, victim)
			break
		}
	}
	// err is overwritten by the search's own outcome; it survives only if the
	// search panics, in which case the waiters must still be released.
	e := &CachedPlan{done: make(chan struct{}), err: errSearchAborted}
	c.entries[sig] = e
	c.mu.Unlock()
	c.counters.misses.Add(1)
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			if c.entries[sig] == e {
				delete(c.entries, sig)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.plan, e.res, e.err = run()
	return e
}

func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Err is the entry's search error; the other accessors need it nil.
func (e *CachedPlan) Err() error { return e.err }

// Plan is the entry's plan, bound to the query that searched it (Bind
// re-binds it). Plan trees are immutable: do not modify it.
func (e *CachedPlan) Plan() *plan.Plan { return e.plan }

// Result is the entry's search result. It is shared: do not modify it.
func (e *CachedPlan) Result() *search.Result { return e.res }

// Bind returns the entry's plan and result re-bound to the requesting query
// when the entry was searched for a structurally identical query with a
// different identity (plan trees are immutable after search, so the roots
// are shared).
func (e *CachedPlan) Bind(q *query.Query) (*plan.Plan, *search.Result, error) {
	if e.err != nil {
		return nil, nil, e.err
	}
	if e.plan.Query == q {
		return e.plan, e.res, nil
	}
	p := &plan.Plan{Query: q, Roots: e.plan.Roots}
	res := *e.res
	res.Plan = p
	return p, &res, nil
}

// Memo returns the value render derives from this entry, calling render on
// the entry's first Memo only: a caller keeps there what it would otherwise
// recompute from the entry on every hit (neo-serve keeps its rendered
// response). Racing first calls may each render; one result is kept and
// returned to all. render must depend on nothing but the entry and the
// snapshot it belongs to, and must return a non-nil value of the same
// concrete type every time.
func (e *CachedPlan) Memo(render func(*CachedPlan) any) any {
	if v := e.memo.Load(); v != nil {
		return v
	}
	v := render(e)
	if e.memo.CompareAndSwap(nil, v) {
		return v
	}
	return e.memo.Load()
}

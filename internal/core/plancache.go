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
	entries map[string]*planEntry // guarded by mu
}

// planEntry is one search outcome. plan, res and err are written by the
// searching caller before done is closed and are read-only afterwards.
type planEntry struct {
	done chan struct{}
	plan *plan.Plan
	res  *search.Result
	err  error
}

var errSearchAborted = errors.New("core: plan search aborted")

// get returns the cached outcome for q's signature, calling run to
// produce it when no entry exists. A failed search is handed to the callers
// already waiting on it and then forgotten, so the next request retries.
// When the cache is full an arbitrary entry is replaced (random replacement:
// cheap, and the whole cache dies with its snapshot anyway).
func (c *planCache) get(q *query.Query, run func() (*plan.Plan, *search.Result, error)) (*plan.Plan, *search.Result, error) {
	sig := q.Signature()
	c.mu.Lock()
	if e, ok := c.entries[sig]; ok {
		c.mu.Unlock()
		c.counters.hits.Add(1)
		<-e.done
		return e.bind(q)
	}
	if len(c.entries) >= planCacheMaxEntries {
		for victim := range c.entries {
			delete(c.entries, victim)
			break
		}
	}
	// err is overwritten by the search's own outcome; it survives only if the
	// search panics, in which case the waiters must still be released.
	e := &planEntry{done: make(chan struct{}), err: errSearchAborted}
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
	return e.plan, e.res, e.err
}

func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// bind returns the entry's plan re-bound to the requesting query when the
// entry was searched for a structurally identical query with a different
// identity (plan trees are immutable after search, so the roots are shared).
func (e *planEntry) bind(q *query.Query) (*plan.Plan, *search.Result, error) {
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

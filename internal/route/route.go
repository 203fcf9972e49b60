// Package route decides, per query, whether planning takes the
// statistics-free greedy fast path (internal/fastpath, microseconds) or the
// full DNN-guided best-first search (internal/search, milliseconds).
// Queries are classified by join count, join-graph shape and whether any
// predicate selectivity is visible in the syntax; the initial policy is a
// heuristic over those classes — single relations and small chains/stars go
// greedy, cyclic or disconnected graphs keep the full search — and it is
// refined online: executed fast-path plans' observed latencies are compared
// against the value network's estimate for the best-first plan, and a class
// whose mean regret crosses the threshold is demoted to the full search for
// the rest of the process.
package route

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"neo/internal/query"
)

// Mode selects the routing behaviour.
type Mode int

const (
	// Full sends every query through the full best-first search — the
	// historical behaviour, and the zero value so existing configurations
	// are unchanged.
	Full Mode = iota
	// Auto routes per class: heuristic bootstrap, regret-based refinement.
	Auto
)

// String returns the flag/JSON spelling of a mode.
func (m Mode) String() string {
	if m == Auto {
		return "auto"
	}
	return "full"
}

// ParseMode parses a mode's flag spelling. The empty string parses as Full
// so zero-valued configurations keep the historical behaviour.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "full":
		return Full, nil
	case "auto":
		return Auto, nil
	default:
		return Full, fmt.Errorf(`route: unknown routing mode %q (want "auto" or "full")`, s)
	}
}

// Class is the routing equivalence class of a query: everything the policy
// conditions on.
type Class struct {
	// NumJoins is the number of join predicates.
	NumJoins int
	// Shape classifies the join graph: "single" (one relation), "chain"
	// (every relation joins at most two others), "star" (one hub joined by
	// every other relation), "general" (cycles, higher-degree meshes, or a
	// disconnected graph).
	Shape string
	// SelVisible reports whether the query carries any column predicate —
	// the only selectivity signal the fast path can see.
	SelVisible bool
}

// Key is the class's stable string form, used as the per-class stats key:
// e.g. "star/3j/sel".
func (c Class) Key() string {
	sel := "nosel"
	if c.SelVisible {
		sel = "sel"
	}
	return fmt.Sprintf("%s/%dj/%s", c.Shape, c.NumJoins, sel)
}

// Classify buckets a query into its routing class.
func Classify(q *query.Query) Class {
	c := Class{NumJoins: len(q.Joins), SelVisible: len(q.Predicates) > 0}
	n := len(q.Relations)
	if n <= 1 {
		c.Shape = "single"
		return c
	}
	// Shape is a property of the simple join graph: parallel join
	// predicates between the same pair collapse to one edge.
	edges := make(map[edge]bool)
	degree := make(map[string]int, n)
	for _, j := range q.Joins {
		a, b := j.LeftTable, j.RightTable
		if a == b {
			continue
		}
		if b < a {
			a, b = b, a
		}
		if !edges[edge{a, b}] {
			edges[edge{a, b}] = true
			degree[a]++
			degree[b]++
		}
	}
	maxDeg := 0
	for _, d := range degree {
		if d > maxDeg {
			maxDeg = d
		}
	}
	switch {
	case !connected(q.Relations, edges) || len(edges) != n-1:
		c.Shape = "general" // disconnected, or a cycle/mesh
	case maxDeg <= 2:
		c.Shape = "chain"
	case maxDeg == n-1:
		c.Shape = "star"
	default:
		c.Shape = "general"
	}
	return c
}

// edge is one undirected edge of the simple join graph.
type edge struct{ a, b string }

// connected reports whether the simple join graph spans every relation.
func connected(rels []string, edges map[edge]bool) bool {
	if len(rels) == 0 {
		return true
	}
	reached := map[string]bool{rels[0]: true}
	for grown := true; grown; {
		grown = false
		for e := range edges {
			if reached[e.a] != reached[e.b] {
				reached[e.a], reached[e.b] = true, true
				grown = true
			}
		}
	}
	return len(reached) == len(rels)
}

// The auto mode's thresholds.
const (
	// maxFastpathJoins bounds how large a chain/star still takes the fast
	// path: beyond it the greedy ordering error compounds over too many
	// joins to trust without statistics.
	maxFastpathJoins = 8
	// minRegretSamples is how many executed fast-path queries of a class
	// must be observed before the class can be demoted.
	minRegretSamples = 8
	// regretThreshold demotes a class when its mean observed/estimated
	// latency ratio exceeds it.
	regretThreshold = 1.5
)

// BEGIN benchmark compatibility block. The router's thresholds are
// constants, but benchmark/ — which only a benchmark PR may edit — still
// passes a Policy to New. Delete the type and New's second parameter when it
// stops (see ROADMAP).

// Policy is empty: it configures nothing.
type Policy struct{}

// END benchmark compatibility block.

// Decision is the outcome of routing one query.
type Decision struct {
	// Class is the query's class key.
	Class string
	// Fastpath reports whether the greedy fast path plans this query.
	Fastpath bool
}

// Router makes and accounts routing decisions. Safe for concurrent use.
type Router struct {
	mode Mode

	mu      sync.Mutex
	classes map[string]*classState // guarded by mu
}

type classState struct {
	fastpath  uint64
	full      uint64
	demoted   bool
	hist      latencyHist
	regretSum float64
	regretN   uint64
}

// New creates a router. The Policy is ignored.
func New(mode Mode, _ Policy) *Router {
	return &Router{mode: mode, classes: make(map[string]*classState)}
}

// classLocked returns (creating if needed) the state for one class key.
// Callers must hold r.mu.
func (r *Router) classLocked(key string) *classState {
	st := r.classes[key]
	if st == nil {
		st = &classState{}
		r.classes[key] = st
	}
	return st
}

// Decide routes one query and records the decision in the per-class
// counters. Decisions are deterministic: the same query against the same
// accumulated regret state always routes the same way.
func (r *Router) Decide(q *query.Query) Decision {
	c := Classify(q)
	d := Decision{Class: c.Key()}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.classLocked(d.Class)
	switch {
	case r.mode == Full:
		d.Fastpath = false
	case st.demoted:
		d.Fastpath = false
	default:
		d.Fastpath = r.heuristic(c)
	}
	if d.Fastpath {
		st.fastpath++
	} else {
		st.full++
	}
	return d
}

// heuristic is the bootstrap policy, before any regret evidence exists:
// single relations are trivially greedy; chains and stars — the pattern
// shapes the janus-datalog results cover — go greedy only when the syntax
// shows selectivity to order by (a predicate-free query gives the greedy
// ordering no signal at all, so the learned search keeps it); cyclic,
// meshed or disconnected graphs keep the full search.
func (r *Router) heuristic(c Class) bool {
	switch c.Shape {
	case "single":
		return true
	case "chain", "star":
		return c.SelVisible && c.NumJoins <= maxFastpathJoins
	default:
		return false
	}
}

// RecordFastpathLatency folds one fast-path planning duration into the
// class's latency histogram (the /stats P50/P99 source).
func (r *Router) RecordFastpathLatency(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.classLocked(class).hist.observe(d)
}

// NeedsOutcome reports whether an executed query of this class should be
// scored for regret. Callers pay one value-network inference to produce the
// estimate, so they ask first: only auto mode learns, and only classes
// actually routed to the fast path (and not already demoted) are worth the
// inference.
func (r *Router) NeedsOutcome(q *query.Query) bool {
	if r.mode != Auto {
		return false
	}
	key := Classify(q).Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.classes[key]
	return st != nil && st.fastpath > 0 && !st.demoted
}

// RecordOutcome folds one executed fast-path query's regret sample into its
// class: observed is the measured latency, estimate the value network's
// prediction for what the full search's plan would have cost (same units).
// Once the class has minRegretSamples samples with a mean ratio above
// regretThreshold it is demoted — every later query of the class takes the
// full search. Demotion is sticky: the fast path's ordering is
// deterministic, so a class it plans badly stays badly planned.
func (r *Router) RecordOutcome(class string, observed, estimate float64) {
	if observed <= 0 || estimate <= 0 {
		return
	}
	ratio := observed / estimate
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.classLocked(class)
	st.regretSum += ratio
	st.regretN++
	if r.mode == Auto && !st.demoted &&
		st.regretN >= minRegretSamples &&
		st.regretSum/float64(st.regretN) > regretThreshold {
		st.demoted = true
	}
}

// ClassStats is one class's routing counters, JSON-shaped for /stats.
type ClassStats struct {
	// Class is the class key ("star/3j/sel").
	Class string `json:"class"`
	// Fastpath and Full count routing decisions.
	Fastpath uint64 `json:"fastpath"`
	Full     uint64 `json:"full"`
	// FastpathP50US / FastpathP99US are fast-path planning-latency
	// percentiles in microseconds (0 until the class has fast-path
	// observations).
	FastpathP50US float64 `json:"fastpath_p50_us,omitempty"`
	FastpathP99US float64 `json:"fastpath_p99_us,omitempty"`
	// RegretMean is the mean observed/estimated latency ratio over
	// RegretSamples executed fast-path queries.
	RegretMean    float64 `json:"regret_mean,omitempty"`
	RegretSamples uint64  `json:"regret_samples,omitempty"`
	// ReroutedFull reports that regret demoted the class to the full
	// search.
	ReroutedFull bool `json:"rerouted_full,omitempty"`
}

// StatsSnapshot is the router's /stats section.
type StatsSnapshot struct {
	// Mode is the configured routing mode.
	Mode string `json:"mode"`
	// Fastpath and Full are decision totals across all classes.
	Fastpath uint64 `json:"fastpath"`
	Full     uint64 `json:"full"`
	// FastpathP50US / FastpathP99US aggregate planning latency over every
	// fast-path decision.
	FastpathP50US float64 `json:"fastpath_p50_us"`
	FastpathP99US float64 `json:"fastpath_p99_us"`
	// Classes lists per-class counters, sorted by class key.
	Classes []ClassStats `json:"classes,omitempty"`
}

// Stats snapshots the router's counters. Safe for concurrent use.
func (r *Router) Stats() StatsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := StatsSnapshot{Mode: r.mode.String()}
	var all latencyHist
	for key, st := range r.classes {
		cs := ClassStats{
			Class:         key,
			Fastpath:      st.fastpath,
			Full:          st.full,
			FastpathP50US: st.hist.quantileUS(0.50),
			FastpathP99US: st.hist.quantileUS(0.99),
			RegretSamples: st.regretN,
			ReroutedFull:  st.demoted,
		}
		if st.regretN > 0 {
			cs.RegretMean = st.regretSum / float64(st.regretN)
		}
		out.Fastpath += st.fastpath
		out.Full += st.full
		all.merge(&st.hist)
		out.Classes = append(out.Classes, cs)
	}
	out.FastpathP50US = all.quantileUS(0.50)
	out.FastpathP99US = all.quantileUS(0.99)
	sort.Slice(out.Classes, func(i, j int) bool { return out.Classes[i].Class < out.Classes[j].Class })
	return out
}

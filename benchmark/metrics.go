package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// endToEnd lists the metrics of the untraced run and their units; perLayer
// those of the traced run. BENCHMARK.json at the repo root carries the same
// names with direction and regression bound, and smoke_test.go fails if the
// two drift apart. Every workload reports every metric: a per-layer metric
// of a layer the workload never enters reads 0 with n=0.
var endToEnd = map[string]string{
	"setup_s":   "s",
	"op_p50_ms": "ms",
	"ops_per_s": "1/s",
	"rss_mb":    "MiB",
}

var perLayer = map[string]string{
	// the workload's own user-facing breakdown, measured with tracing on
	"optimize_p50_ms": "ms", "optimize_p95_ms": "ms", "optimize_rps": "1/s",
	"feedback_p50_ms": "ms", "exec_p50_ms": "ms", "loop_cps": "1/s",
	"feedback_to_served_ms": "ms", "episode_s": "s", "quality_ratio": "ratio", "failed_share": "share",
	// load generator
	"loadgen.sent": "count", "loadgen.ok": "count", "loadgen.failed": "count",
	"loadgen.lateness_p99_us": "us", "loadgen.optimize_p99_ms": "ms", "loadgen.within_limit_share": "share",
	// pkg/neo.Client + net/http
	"client.route_ns": "ns", "http.transport_us": "us",
	// serve
	"serve.handler_hit_us": "us", "serve.handler_fastpath_us": "us", "serve.handler_search_ms": "ms",
	"serve.overhead_us": "us", "serve.feedback_handler_us": "us", "serve.swap_ms": "ms",
	// query, pkg/neo plan cache
	"query.signature_us": "us", "neo.cache_hit_us": "us", "neo.cache_hit_share": "share",
	// route, fastpath
	"route.decide_ns": "ns", "route.fastpath_share": "share", "fastpath.plan_us": "us",
	// core
	"core.scorer_build_us": "us", "core.retrain_ms": "ms", "core.experience_len": "count",
	// search
	"search.total_ms": "ms", "search.self_ms": "ms", "search.expansions": "count",
	"search.plans_scored": "count", "search.score_batches": "count",
	// feature
	"feature.encode_query_us": "us", "feature.encode_plan_ms": "ms", "feature.encode_plan_us_per_plan": "us",
	// valuenet (+treeconv, nn)
	"valuenet.forward_ms": "ms", "valuenet.forward_us_per_row": "us", "valuenet.snapshot_bytes": "bytes",
	// sched
	"sched.overhead_ms": "ms", "sched.fused_share": "share", "sched.avg_fused_size": "count", "sched.dedup_share": "share",
	// engine, executor, storage
	"executor.disk_exec_ms": "ms", "executor.disk_allocs_per_exec": "count", "executor.sim_exec_ms": "ms",
	"storage.pool_hit_share": "share", "storage.evictions": "count", "storage.bytes_read": "bytes",
	// cluster, checkpoint
	"replica.forward_wait_ms": "ms", "replica.forwarded": "count", "replica.dropped": "count",
	"trainer.experience_ms": "ms", "trainer.snapshot_get_ms": "ms", "trainer.retrain_ms": "ms",
	"checkpoint.snapshot_bytes": "bytes", "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
	// Go runtime, tracing itself
	"go.alloc_bytes_per_op": "bytes", "go.allocs_per_op": "count", "go.gc_pause_ms": "ms", "go.gc_cycles": "count", "go.peak_rss_mb": "MiB",
	"trace.overhead_share": "share", "trace.coverage": "ratio",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples behind the value
}

// report accumulates one run's metrics, operation counts and output checks.
// Its counters are touched from client goroutines, hence the mutex.
type report struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Traced   bool                   `json:"traced"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Attempted and Failed count operations: requests, cycles, episodes and
	// each verified output.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Checks counts how often each output check ran; a check that never ran
	// makes the run incorrect just as a failed one does.
	Checks map[string]int `json:"checks"`
	// Invalid lists validity guards the run tripped (a late generator, a
	// workload that is not what it claims): such a run is not a result.
	Invalid []string `json:"invalid,omitempty"`

	mu       sync.Mutex
	failures []string
}

func newReport(workload string, seed int64, traced bool) *report {
	return &report{Workload: workload, Seed: seed, Traced: traced,
		Metrics: make(map[string]metricValue), Checks: make(map[string]int)}
}

// set records a metric; its unit comes from the tables above, so a name
// missing there is a programming error.
func (r *report) set(name string, v float64, n int) {
	unit, ok := endToEnd[name]
	if !ok {
		if unit, ok = perLayer[name]; !ok {
			panic("benchmark: metric " + name + " is not declared in metrics.go")
		}
	}
	r.mu.Lock()
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
	r.mu.Unlock()
}

// op counts one attempted operation and, unless ok, one failed.
func (r *report) op(ok bool) {
	r.mu.Lock()
	r.Attempted++
	if !ok {
		r.Failed++
	}
	r.mu.Unlock()
}

// check records that a named output check ran once; a false ok is described
// by the message and makes the run incorrect (the caller counts the failed
// operation through op).
func (r *report) check(name string, ok bool, format string, args ...any) bool {
	r.mu.Lock()
	r.Checks[name]++
	if !ok && len(r.failures) < 20 {
		r.failures = append(r.failures, name+": "+fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
	return ok
}

func (r *report) invalid(format string, args ...any) {
	r.mu.Lock()
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// finish fills in every declared metric the workload did not set (0, n=0)
// and reports whether the run's outputs were all correct: nothing failed and
// every expected check ran.
func (r *report) finish(expectChecks []string) bool {
	table := endToEnd
	if r.Traced {
		table = perLayer
	}
	for name, unit := range table {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = metricValue{Unit: unit}
		}
	}
	correct := r.Failed == 0 && r.Attempted > 0
	for _, c := range expectChecks {
		if r.Checks[c] == 0 {
			r.failures = append(r.failures, "check "+c+" never ran")
			correct = false
		}
	}
	return correct
}

// print writes the human-readable report: every metric by name with its
// unit and sample count, then checks, failures and validity guards.
func (r *report) print(w io.Writer) {
	mode := "untraced (end-to-end)"
	if r.Traced {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", r.Workload, r.Seed, mode)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	checks := make([]string, 0, len(r.Checks))
	for c, n := range r.Checks {
		checks = append(checks, fmt.Sprintf("%s×%d", c, n))
	}
	sort.Strings(checks)
	fmt.Fprintf(w, "  attempted %d, failed %d; checks %v\n", r.Attempted, r.Failed, checks)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, s := range r.Invalid {
		fmt.Fprintf(w, "  INVALID %s\n", s)
	}
}

// resultLine is the contract's last line of standard output.
func (r *report) resultLine(correct bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]mv)}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

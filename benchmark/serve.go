package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/executor"
	"neo/internal/route"
	"neo/pkg/neo"
)

// Latency limits behind loadgen.within_limit_share.
const (
	hotLimit  = 2 * time.Millisecond
	missLimit = 400 * time.Millisecond
)

// serveRun is the state shared by serve-hot and serve-miss: the fleet, the
// generated items, and per-item memory of the first plan served, against
// which every repeat is compared.
type serveRun struct {
	name    string
	f       *fleet
	rep     *report
	tr      *tracer
	items   []item
	seq     []int // request sequence as indices into items
	plans   []atomic.Pointer[string]
	version uint64
	limit   time.Duration

	// traced requests, by request id (id = index + 1); appended only while
	// the tracer is on, which is always a single-client pass
	tracedMu sync.Mutex
	traced   []tracedReq
}

// tracedReq remembers what a traced request asked for, so its spans can be
// grouped by the class the generator knows it had.
type tracedReq struct {
	item       int  // index into items
	firstTouch bool // the spec had not been served before: planned, not a cache hit
}

// serveSetup builds the fleet and the workload's inputs, and (serve-hot)
// sends the count-based warm-up. Everything up to its return is setup_s.
func serveSetup(name string, o options, tr *tracer) (*serveRun, error) {
	f, err := newFleet(o.sz, "postgres", "", tr)
	if err != nil {
		if f != nil {
			f.close()
		}
		return nil, err
	}
	s := &serveRun{name: name, f: f, tr: tr, rep: newReport(name, o.seed, o.trace), version: f.trainer.NetVersion()}
	ph := servePhases(name, o)
	switch name {
	case "serve-hot":
		s.limit = hotLimit
		s.items, err = genItems(f.tsys.DB, o.sz.hotPool, o.seed, 1, func(*neo.Query, bool) int { return 0 })
		// Enough draws for warm-up, the open loop and a closed loop far
		// faster than the reference box's.
		n := o.sz.hotWarmup + ph.cycles*int(ph.rate*ph.open.Seconds()*1.2+60000*ph.closed.Seconds()) + 4*tracedSample(name, o)
		s.seq = zipfSequence(o.seed, 1.1, len(s.items), n)
	case "serve-miss":
		s.limit = missLimit
		// More distinct full-search specs than requests are sent, so no
		// request repeats and the plan cache never helps.
		n := missWarmup + ph.cycles*(max(ph.latN, int(ph.rate*ph.open.Seconds()*1.5)+4)+ph.closedN) + 2*tracedSample(name, o)
		s.items, err = genItems(f.tsys.DB, n, o.seed, 1, missStratum)
		s.seq = make([]int, len(s.items))
		for i := range s.seq {
			s.seq[i] = i
		}
	}
	if err != nil {
		f.close()
		return nil, err
	}
	s.plans = make([]atomic.Pointer[string], len(s.items))

	if name == "serve-hot" {
		// First touches: every pool spec is planned once (fast path or full
		// search) by one client, so the timed phases start from a known,
		// fully warm plan cache; then the Zipf warm-up opens both
		// connections.
		tr.enable(true) // a traced run records the first touches: the only fast-path and search requests serve-hot has
		closedLoop(time.Hour, len(s.items), 1, func(_, k int) bool { return s.request(k) })
		tr.enable(false)
		closedLoop(time.Hour, o.sz.hotWarmup, clients, s.do)
	} else {
		closedLoop(time.Hour, missWarmup, clients, s.do)
	}
	return s, nil
}

// missWarmup is how many never-repeated searches open the connections and
// fault the code in before serve-miss is timed.
const missWarmup = 8

// missJoins is the size of every serve-miss query: the middle of the 4–6
// joins general-shape JOB queries have on this schema. A 6-join search costs
// 4× a 4-join one, so a mixed sample's median and throughput move with the
// seed's mix; one size makes every request a sample of the same thing.
const missJoins = 5

// missStratum admits the specs auto routing sends to the full search that
// have missJoins joins.
func missStratum(q *neo.Query, fastpath bool) int {
	if fastpath || len(q.Joins) != missJoins {
		return -1
	}
	return 0
}

// phases is how one run of a serving workload spends -seconds: cycles
// alternations of a latency window and a 2-client closed-loop throughput
// window, so that both measurements are spread over the whole run and a
// disturbance of a second or two cannot land on one of them alone.
type phases struct {
	cycles int
	// Latency window. Open loop (serve-hot; serve-miss when traced): seeded
	// Poisson arrivals at rate for open, each request timed from its due
	// time. Closed loop (serve-miss untraced): latN requests from one client.
	rate float64
	open time.Duration
	latN int
	// Throughput window: both clients, closed loop, for closed (serve-hot)
	// or closedN requests (serve-miss).
	closed  time.Duration
	closedN int
}

// servePhases sizes the windows from -seconds. serve-hot collects over a
// thousand open-loop samples a second and spends the larger part saturating.
// serve-miss sends fixed request counts, sized from the reference box's
// completion rates, so every run plans the same number of searches. The
// traced run measures the same windows at half length and spends the other
// half on its traced passes.
func servePhases(name string, o options) phases {
	secs := o.seconds
	if o.trace {
		secs /= 2
	}
	if name == "serve-hot" {
		const cycles = 10
		dur := func(share float64) time.Duration { return time.Duration(share * secs / cycles * float64(time.Second)) }
		return phases{cycles: cycles, rate: o.sz.hotRate, open: dur(0.4), closed: dur(0.6)}
	}
	const cycles = 5
	count := func(share, rate float64) int { return max(int(share*secs/cycles*rate+0.5), 2) }
	return phases{cycles: cycles, rate: o.sz.missRate, open: time.Duration(0.55 * secs / cycles * float64(time.Second)),
		latN: count(0.55, o.sz.missLatRate), closedN: count(0.45, o.sz.missClosedRate)}
}

// tracedSample is how many requests of the traced pass are traced (as many
// again are sent untraced beside them): the sizing's count at the reference
// length, scaled with -seconds.
func tracedSample(name string, o options) int {
	if !o.trace {
		return 0
	}
	n := float64(o.sz.tracedMiss)
	if name == "serve-hot" {
		n = float64(o.sz.tracedHot)
	}
	return max(2, int(n*o.seconds/referenceSeconds))
}

// do sends sequence position i.
func (s *serveRun) do(_, i int) bool { return s.request(s.seq[i]) }

// request sends item k's spec and checks the response: 200, a non-empty plan,
// the expected net_version, and the same plan string as every earlier
// response for the same spec. While the tracer is on it also records the
// client-side span and tags the request so the handler's span nests in it.
func (s *serveRun) request(k int) bool {
	ctx := context.Background()
	sp := 0
	if s.tr.on() {
		s.tracedMu.Lock()
		s.traced = append(s.traced, tracedReq{item: k, firstTouch: s.plans[k].Load() == nil})
		req := len(s.traced)
		s.tracedMu.Unlock()
		sp = s.tr.begin("client.optimize", 0, req)
		ctx = context.WithValue(context.WithValue(ctx, ctxReq, req), ctxSpan, sp)
	}
	resp, err := s.f.client.Optimize(ctx, &s.items[k].spec)
	s.tr.finish(sp)
	ok := s.rep.check("response", err == nil && resp.Plan != "" && resp.NetVersion == s.version,
		"spec %d: err=%v resp=%+v (want net_version %d)", k, err, resp, s.version)
	if ok {
		if prev := s.plans[k].Load(); prev == nil {
			s.plans[k].CompareAndSwap(nil, &resp.Plan)
		} else {
			ok = s.rep.check("repeat-plan", *prev == resp.Plan, "spec %d: plan %q then %q", k, *prev, resp.Plan)
		}
	}
	s.rep.op(ok)
	return ok
}

// fleetCounters sums the replicas' plan-cache, router and fusion-scheduler
// counters; the harness only ever looks at their growth over an interval.
type fleetCounters struct {
	hits, misses                                         uint64 // plan cache
	fastpath, full                                       uint64 // routing decisions
	batches, fusedBatches, submissions, rows, dedupedRow uint64 // fusion scheduler
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, r := range f.replicas {
		pc, rs, fs := r.sys.PlanCacheStats(), r.sys.RouteStats(), r.sys.FusionStats()
		c = c.plus(fleetCounters{pc.Hits, pc.Misses, rs.Fastpath, rs.Full,
			fs.Batches, fs.FusedBatches, fs.Submissions, fs.Rows, fs.CacheHits})
	}
	return c
}

func (c fleetCounters) plus(d fleetCounters) fleetCounters {
	return fleetCounters{c.hits + d.hits, c.misses + d.misses, c.fastpath + d.fastpath, c.full + d.full,
		c.batches + d.batches, c.fusedBatches + d.fusedBatches, c.submissions + d.submissions, c.rows + d.rows, c.dedupedRow + d.dedupedRow}
}

func (c fleetCounters) minus(d fleetCounters) fleetCounters {
	return fleetCounters{c.hits - d.hits, c.misses - d.misses, c.fastpath - d.fastpath, c.full - d.full,
		c.batches - d.batches, c.fusedBatches - d.fusedBatches, c.submissions - d.submissions, c.rows - d.rows, c.dedupedRow - d.dedupedRow}
}

// reportCounters sets the share metrics: cache and routing over the whole
// timed part, the scheduler's over the intervals two clients were in flight
// (the only place two different searches can share a pass).
func reportCounters(rep *report, whole, twoClients fleetCounters) (hitShare, fastShare float64) {
	lookups := float64(whole.hits + whole.misses)
	hitShare = ratio(float64(whole.hits), lookups)
	rep.set("neo.cache_hit_share", hitShare, int(lookups))
	routed := float64(whole.fastpath + whole.full)
	fastShare = ratio(float64(whole.fastpath), routed)
	rep.set("route.fastpath_share", fastShare, int(routed))
	passes := float64(twoClients.batches)
	rep.set("sched.fused_share", ratio(float64(twoClients.fusedBatches), passes), int(passes))
	rep.set("sched.avg_fused_size", ratio(float64(twoClients.submissions), passes), int(passes))
	rep.set("sched.dedup_share", ratio(float64(twoClients.dedupedRow), float64(twoClients.rows)), int(twoClients.rows))
	return hitShare, fastShare
}

// runServe is serve-hot and serve-miss: alternating latency and throughput
// windows (see phases), then the output checks, then — traced — the passes
// that attribute the time to layers.
func runServe(name string, o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
		tr.enable(false)
	}
	s, err := serveSetup(name, o, tr)
	if err != nil {
		return nil, err
	}
	defer s.f.close()
	rep := s.rep
	setup := time.Since(processStart)
	if o.setupOnly {
		rep.set("setup_s", setup.Seconds(), 1)
		return rep, nil
	}

	ph := servePhases(name, o)
	pos := missWarmup
	if name == "serve-hot" {
		pos = o.sz.hotWarmup
	}
	reserve := 2 * tracedSample(name, o) // sequence positions kept for the traced passes
	openLoopLatency := name == "serve-hot" || o.trace

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := s.f.counters()
	var fused fleetCounters // scheduler counters over the 2-client windows only
	var lat, closed []sample
	var windowP50, windowRPS []float64
	for c := 0; c < ph.cycles; c++ {
		from := pos
		do := func(cl, i int) bool { return s.do(cl, from+i) }
		var w []sample
		if openLoopLatency {
			dues := poissonSchedule(o.seed, c, ph.rate, ph.open)
			if pos+len(dues)+reserve >= len(s.seq) {
				return nil, fmt.Errorf("%s: cycle %d exceeds the generated sequence of %d requests", name, c, len(s.seq))
			}
			w = openLoop(time.Now(), dues, clients, do)
		} else {
			w, _ = closedLoop(time.Hour, ph.latN, 1, do)
		}
		pos += len(w)
		lat = append(lat, w...)
		windowP50 = append(windowP50, median(latenciesMS(w)))

		n, d := ph.closedN, time.Hour
		if name == "serve-hot" {
			n, d = len(s.seq)-pos-reserve, ph.closed
		}
		if n <= 0 || pos+n+reserve > len(s.seq) {
			return nil, fmt.Errorf("%s: cycle %d exceeds the generated sequence of %d requests", name, c, len(s.seq))
		}
		from = pos
		before := s.f.counters()
		w, elapsed := closedLoop(d, n, clients, do)
		fused = fused.plus(s.f.counters().minus(before))
		pos += len(w)
		closed = append(closed, w...)
		windowRPS = append(windowRPS, float64(len(w))/elapsed.Seconds())
	}
	c1 := s.f.counters()
	runtime.ReadMemStats(&m1)
	rss, peak := settledRSSMiB(), peakRSSMiB()

	// serve-hot has over a thousand samples per window, so the median window
	// shrugs off a neighbour's burst that a pooled median would absorb;
	// serve-miss has a few dozen searches in all and pools them.
	latMS := latenciesMS(lat)
	p50 := median(latMS)
	if name == "serve-hot" {
		p50 = median(windowP50)
	}
	rps := median(windowRPS)
	quality := s.verify(o)

	if !o.trace {
		rep.set("setup_s", setup.Seconds(), 1)
		rep.set("op_p50_ms", p50, len(lat))
		rep.set("ops_per_s", rps, len(closed))
		rep.set("rss_mb", rss, 1)
		return rep, nil
	}

	// Traced run: the same phases (half length) give the workload's own
	// user-facing numbers and the counter deltas; the traced passes follow.
	rep.set("optimize_p50_ms", p50, len(lat))
	if v, p := highestTail(latMS); p >= 95 {
		p95, _ := percentile(latMS, 95)
		rep.set("optimize_p95_ms", p95, len(lat))
		rep.set("loadgen.optimize_p99_ms", v, len(lat)) // p99 when ≥1000 samples, else the highest supported
	}
	rep.set("optimize_rps", rps, len(closed))
	rep.set("quality_ratio", quality, o.sz.verifyN)
	sent := len(lat) + len(closed)
	failed := countFailed(lat) + countFailed(closed)
	rep.set("loadgen.sent", float64(sent), sent)
	rep.set("loadgen.ok", float64(sent-failed), sent)
	rep.set("loadgen.failed", float64(failed), sent)
	rep.set("failed_share", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	late := make([]float64, len(lat))
	for i, sm := range lat {
		late[i] = us(sm.lateness)
	}
	lateTail, _ := highestTail(late)
	rep.set("loadgen.lateness_p99_us", lateTail, len(lat))
	rep.set("loadgen.within_limit_share", withinLimitShare(lat, s.limit), len(lat))
	if lateTail/1000 > ms(s.limit) {
		rep.invalid("generator ran late: lateness tail %.0fµs alone exceeds the %v latency limit", lateTail, s.limit)
	}

	hitShare, fastShare := reportCounters(rep, c1.minus(c0), fused)
	switch {
	case name == "serve-hot" && hitShare < 0.95:
		rep.invalid("serve-hot is mis-built: plan-cache hit share %.3f < 0.95", hitShare)
	case name == "serve-miss" && (hitShare != 0 || fastShare != 0):
		rep.invalid("serve-miss is mis-built: hit share %.3f, fast-path share %.3f (both must be 0)", hitShare, fastShare)
	}
	setRuntime(rep, &m0, &m1, sent, peak)

	if err := s.tracedPasses(o, pos); err != nil {
		return nil, err
	}
	return rep, nil
}

// setRuntime reports the Go runtime's allocation and GC work over a timed
// phase of ops operations (whole process: clients, daemons and harness).
func setRuntime(rep *report, m0, m1 *runtime.MemStats, ops int, peakRSS float64) {
	rep.set("go.peak_rss_mb", peakRSS, 1)
	rep.set("go.alloc_bytes_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(ops)), ops)
	rep.set("go.allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), float64(ops)), ops)
	rep.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))
	rep.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC), 1)
}

// verify re-plans a seeded sample of the served specs in-process on the
// owning replica (a guaranteed plan-cache hit), checks that plan against the
// string the client was served, executes it on the simulated engine and
// compares its row count with an independent execution of the query. It
// returns Σ latency of the served plans ÷ Σ latency of the native
// optimizer's plans for the same queries.
func (s *serveRun) verify(o options) float64 {
	var served []int
	for k := range s.items {
		if s.plans[k].Load() != nil {
			served = append(served, k)
		}
	}
	neoSum, nativeSum := 0.0, 0.0
	done := 0
	for _, j := range stream(o.seed, streamSample).Perm(len(served)) {
		if done == o.sz.verifyN {
			break
		}
		k := served[j]
		it := s.items[k]
		sys := s.f.owner(&it.spec).sys
		want, exact, err := trueRows(sys, it.query)
		if err != nil || !exact {
			continue // the reference count itself was down-sampled: not a usable oracle
		}
		done++
		p, _, err := sys.Optimize(it.query)
		ok := s.rep.check("served-plan", err == nil && p.String() == *s.plans[k].Load(),
			"spec %d: in-process plan %v (err %v), served %q", k, p, err, *s.plans[k].Load())
		if ok {
			lat, res, err := sys.Engine.Execute(p)
			ok = s.rep.check("rows", err == nil && (!exactResult(res) || res.OutputRows == want),
				"spec %d: plan returned %v rows (err %v), query has %v", k, res, err, want)
			np, nerr := sys.NativePlan(it.query)
			if nerr == nil {
				nlat, _ := sys.Execute(np)
				neoSum += lat
				nativeSum += nlat
			}
		}
		s.rep.op(ok)
	}
	return ratio(neoSum, nativeSum)
}

// trueRows is System.TrueCardinality plus whether that count is exact: the
// in-memory executor down-samples intermediates above its cap, after which
// cardinalities are estimates.
func trueRows(sys *neo.System, q *neo.Query) (rows float64, exact bool, err error) {
	rows, err = sys.TrueCardinality(q)
	if err != nil {
		return 0, false, err
	}
	cards, err := executor.New(sys.DB).TrueJoinCardinalities(q)
	if err != nil {
		return 0, false, err
	}
	for _, c := range cards {
		if c > executor.DefaultMaxRows {
			return rows, false, nil
		}
	}
	return rows, true, nil
}

// exactResult reports whether an execution stayed under every operator's
// row cap, i.e. its OutputRows is a count and not an estimate or a lower
// bound.
func exactResult(res *executor.Result) bool {
	if res == nil || res.Truncated {
		return false
	}
	for _, ns := range res.Nodes {
		if ns.OutputRows > executor.DefaultMaxRows {
			return false
		}
	}
	return true
}

// tracedPasses is the second half of a traced serving run. A fixed sample of
// the workload's own next requests is sent by one client, half of them with
// tracing on (client and handler spans). The traced specs are then planned
// in-process on a cold-cache twin through the layer calls, and the handler's
// time is held against the layers' sum.
func (s *serveRun) tracedPasses(o options, pos int) error {
	rep, tr := s.rep, s.tr
	n := tracedSample(s.name, o)
	if n == 0 || pos+2*n > len(s.seq) {
		return fmt.Errorf("%s: no sequence left for the traced passes", s.name)
	}
	firstTraced := len(s.traced)
	// One client, 2n requests, tracing switched on for every other one:
	// traced and untraced requests meet the same machine state, so the
	// difference of their medians is the tracing overhead and not the box's
	// drift.
	both, _ := closedLoop(time.Hour, 2*n, 1, func(c, i int) bool {
		tr.enable(i%2 == 1)
		return s.do(c, pos+i)
	})
	tr.enable(false)
	var plain, traced []float64
	for _, sm := range both {
		if sm.idx%2 == 1 {
			traced = append(traced, ms(sm.latency))
		} else {
			plain = append(plain, ms(sm.latency))
		}
	}
	rep.set("trace.overhead_share", ratio(median(traced), median(plain))-1, len(traced))

	// Handler and transport times by request class, from the spans.
	spans := tr.snapshot()
	byID := make(map[int]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var hitUS, fastUS, searchMS, transportUS []float64
	handlerNS := make(map[int]float64) // item → handler time of its first touch
	for _, sp := range spans {
		if sp.Name != "serve.optimize" || sp.Req < 1 || sp.Req > len(s.traced) {
			continue
		}
		tq := s.traced[sp.Req-1]
		d := float64(sp.End - sp.Start)
		if parent, ok := byID[sp.Parent]; ok {
			transportUS = append(transportUS, (float64(parent.End-parent.Start)-d)/1e3)
		}
		switch {
		case !tq.firstTouch:
			hitUS = append(hitUS, d/1e3)
		case s.items[tq.item].fastpath:
			fastUS = append(fastUS, d/1e3)
			handlerNS[tq.item] = d
		default:
			searchMS = append(searchMS, d/1e6)
			handlerNS[tq.item] = d
		}
	}
	rep.set("serve.handler_hit_us", median(hitUS), len(hitUS))
	rep.set("serve.handler_fastpath_us", median(fastUS), len(fastUS))
	rep.set("serve.handler_search_ms", median(searchMS), len(searchMS))
	rep.set("http.transport_us", median(transportUS), len(transportUS))

	var routeNS []float64
	for _, tq := range s.traced[firstTraced:] {
		t0 := time.Now()
		s.f.client.Route(&s.items[tq.item].spec)
		routeNS = append(routeNS, float64(time.Since(t0)))
	}
	rep.set("client.route_ns", median(routeNS), len(routeNS))

	// In-process decomposition of every first-touch spec on a cold twin.
	twin, err := s.f.openReplica("")
	if err != nil {
		return err
	}
	defer closeReplica(twin)
	var cold []item
	var coldIdx []int
	for k := range s.items {
		if _, ok := handlerNS[k]; ok && len(cold) < decomposeMax {
			cold = append(cold, s.items[k])
			coldIdx = append(coldIdx, k)
		}
	}
	tr.enable(true)
	ls := decompose(twin.sys, route.Auto, tr, inprocReqBase, cold, rep)
	ls.report(rep)

	var coverage, overheadUS []float64
	for j, k := range coldIdx {
		rep.check("layer-plan", ls.plan(j) == *s.plans[k].Load(), "spec %d: layer calls planned %q, the replica served %q", k, ls.plan(j), *s.plans[k].Load())
		overheadUS = append(overheadUS, (handlerNS[k]-ls.inprocNS[j])/1e3)
		if !s.items[k].fastpath {
			coverage = append(coverage, ls.inprocNS[j]/handlerNS[k])
		}
	}
	cacheHitUS := median(ls.cacheHitUS)
	for _, h := range hitUS {
		overheadUS = append(overheadUS, h-cacheHitUS)
	}
	rep.set("serve.overhead_us", median(overheadUS), len(overheadUS))
	cov := median(coverage)
	rep.set("trace.coverage", cov, len(coverage))
	if s.name == "serve-miss" && (cov < 0.85 || cov > 1.15) {
		rep.invalid("trace.coverage %.3f: the layers' sum does not account for the handler's time (want 0.85–1.15)", cov)
	}

	queries := make([]*neo.Query, 0, o.sz.verifyN)
	for _, it := range cold[:min(len(cold), o.sz.verifyN)] {
		queries = append(queries, it.query)
	}
	probeSystem(twin.sys, tr, queries, rep)
	tr.enable(false)
	_, err = writeTrace(o.outDir, s.name, tr.snapshot())
	return err
}

// decomposeMax bounds how many first-touch specs are planned again in-process
// (each costs three searches: untraced, traced, and through the scheduler).
const decomposeMax = 48

// inprocReqBase offsets the request ids of the in-process decomposition from
// those of the HTTP requests: in-process request inprocReqBase+j plans the
// j-th first-touch spec of the HTTP pass.
const inprocReqBase = 1_000_000

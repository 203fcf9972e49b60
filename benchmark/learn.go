package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"neo/internal/cluster/proto"
	"neo/internal/route"
	"neo/pkg/neo"
)

// loopStrata: of every four learn-loop specs one is full-search class and
// three are fast-path class under a fresh router, whatever the seed. A
// search cycle costs ~50× a fast-path one, so the share of them sets the
// round's length; the natural JOB mix leaves it to the draw.
const loopStrata = 4

// cycle is one optimize → execute → feedback pass over one spec.
type cycle struct {
	optimize, exec, feedback, total time.Duration
	execMS                          float64 // the latency reported as feedback
	traced                          bool
	ok                              bool
}

// swap is the operator's part of one round, as the harness observed it.
type swap struct {
	forwardWait time.Duration // last feedback ack → trainer has accepted the round's entries
	retrain     time.Duration // accepted → trainer publishes the next version
	rollout     time.Duration // published → both replicas answer /admin/snapshot with it
}

type loopRun struct {
	f       *fleet
	rep     *report
	tr      *tracer
	items   []item
	want    []float64 // true row count of each item's query
	version uint64
	sent    int // feedbacks sent so far, all rounds
	nextReq int
	mu      sync.Mutex
}

func loopSetup(o options, tr *tracer) (*loopRun, error) {
	f, err := newFleet(o.sz, "disk", filepath.Join(o.outDir, "tmp"), tr)
	if err != nil {
		if f != nil {
			f.close()
		}
		return nil, err
	}
	l := &loopRun{f: f, tr: tr, rep: newReport("learn-loop", o.seed, o.trace), version: f.trainer.NetVersion()}
	want := make(map[string]float64)
	fast := 0
	l.items, err = genItems(f.tsys.DB, o.sz.loopSpecs, o.seed, loopStrata, func(q *neo.Query, fastpath bool) int {
		rows, exact, err := trueRows(f.tsys, q)
		if err != nil || !exact {
			return -1 // no exact oracle for this query's row count
		}
		want[q.ID] = rows
		if !fastpath {
			if len(q.Joins) != missJoins {
				return -1 // one search size, as on serve-miss: the round's search cost must not depend on the draw
			}
			return 0
		}
		fast++
		return 1 + fast%(loopStrata-1)
	})
	if err != nil {
		f.close()
		return nil, err
	}
	for _, it := range l.items {
		l.want = append(l.want, want[it.query.ID])
	}
	return l, nil
}

// cycle runs spec k through the paper's loop: ask the fleet for a plan,
// execute that plan on the owning replica's disk backend, report the
// measured latency back under the version the plan was served from.
func (l *loopRun) cycle(r, k int) cycle {
	it := l.items[k]
	ctx := context.Background()
	// A traced run traces every other group of loopStrata specs and swaps the
	// groups every round, so each spec is traced in one round and untraced in
	// the next, and both kinds meet the same machine state within a round.
	traced := l.tr.on() && (k/loopStrata+r)%2 == 1
	req, spOpt := 0, 0
	if traced {
		l.mu.Lock()
		l.nextReq++
		req = l.nextReq
		l.mu.Unlock()
		spOpt = l.tr.begin("client.optimize", 0, req)
		ctx = context.WithValue(context.WithValue(ctx, ctxReq, req), ctxSpan, spOpt)
	}
	c := cycle{traced: traced}
	t0 := time.Now()
	resp, err := l.f.client.Optimize(ctx, &it.spec)
	c.optimize = time.Since(t0)
	l.tr.finish(spOpt)
	if !l.rep.check("response", err == nil && resp.Plan != "" && resp.NetVersion == l.version,
		"spec %d: err=%v resp=%+v (want net_version %d)", k, err, resp, l.version) {
		return c
	}
	// The served plan arrives as text; the owning replica's plan cache holds
	// the plan object it was rendered from.
	sys := l.f.owner(&it.spec).sys
	p, _, err := sys.Optimize(it.query)
	if !l.rep.check("served-plan", err == nil && p.String() == resp.Plan, "spec %d: cached plan %v (err %v), served %q", k, p, err, resp.Plan) {
		return c
	}
	t1 := time.Now()
	lat, res, err := sys.Engine.Execute(p)
	t2 := time.Now()
	c.exec, c.execMS = t2.Sub(t1), lat
	l.tr.add("engine.execute", 0, req, t1, t2)
	if !l.rep.check("rows", err == nil && (!exactResult(res) || res.OutputRows == l.want[k]),
		"spec %d: plan returned %v rows (err %v), query has %v", k, res, err, l.want[k]) {
		return c
	}
	spFb := 0
	if traced {
		spFb = l.tr.begin("client.feedback", 0, req)
		ctx = context.WithValue(ctx, ctxSpan, spFb)
	}
	fb, err := l.f.client.Feedback(ctx, &it.spec, lat, resp.NetVersion)
	l.tr.finish(spFb)
	c.feedback = time.Since(t2)
	c.total = time.Since(t0)
	c.ok = l.rep.check("feedback-accepted", err == nil && fb.Queued, "spec %d: feedback err=%v resp=%+v", k, err, fb)
	return c
}

// round sends every spec through one cycle from both clients, then plays the
// operator: waits for the trainer to accept the round's entries and publish
// the retrained network, and tells both replicas to load it.
func (l *loopRun) round(r int) ([]cycle, swap, error) {
	cycles := make([]cycle, len(l.items))
	closedLoop(time.Hour, len(l.items), clients, func(_, k int) bool {
		cycles[k] = l.cycle(r, k)
		l.rep.op(cycles[k].ok)
		return cycles[k].ok
	})
	lastAck := time.Now()
	for _, c := range cycles {
		if c.ok {
			l.sent++
		}
	}
	if l.sent < (r+1)*len(l.items) {
		return cycles, swap{}, fmt.Errorf("round %d: only %d of %d feedbacks were accepted, the trainer will not retrain", r, l.sent, (r+1)*len(l.items))
	}
	deadline := lastAck.Add(60 * time.Second)
	for l.f.trainer.Stats().Accepted < uint64(l.sent) {
		if time.Now().After(deadline) {
			return cycles, swap{}, fmt.Errorf("round %d: trainer accepted %d of %d entries", r, l.f.trainer.Stats().Accepted, l.sent)
		}
		time.Sleep(time.Millisecond)
	}
	accepted := time.Now()
	for l.f.trainer.NetVersion() == l.version {
		if time.Now().After(deadline) {
			return cycles, swap{}, fmt.Errorf("round %d: trainer did not publish a version after %d", r, l.version)
		}
		time.Sleep(time.Millisecond)
	}
	published := time.Now()
	l.tr.add("trainer.retrain", 0, -1-r, accepted, published)
	next := l.f.trainer.NetVersion()

	rpc := proto.Client{HTTP: l.f.httpc, Attempts: 1}
	var wg sync.WaitGroup
	loaded := make([]bool, len(l.f.replicas))
	for i, rp := range l.f.replicas {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			var resp proto.SnapshotResponse
			err := rpc.PostJSON(context.Background(), url+"/admin/snapshot", proto.SnapshotRequest{Version: next}, &resp)
			loaded[i] = l.rep.check("served-version", err == nil && resp.NetVersion == next, "replica %d: err=%v, serving version %d, want %d", i, err, resp.NetVersion, next)
		}(i, rp.ts.URL)
	}
	wg.Wait()
	served := time.Now()
	for _, ok := range loaded {
		l.rep.op(ok)
		if !ok {
			return cycles, swap{}, fmt.Errorf("round %d: a replica did not load version %d", r, next)
		}
	}
	l.version = next
	return cycles, swap{forwardWait: accepted.Sub(lastAck), retrain: published.Sub(accepted), rollout: served.Sub(published)}, nil
}

// runLearnLoop is the paper's Figure 1 loop through the fleet on the disk
// engine.
func runLearnLoop(o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
		tr.enable(false)
	}
	l, err := loopSetup(o, tr)
	if err != nil {
		return nil, err
	}
	defer l.f.close()
	rep := l.rep
	setup := time.Since(processStart)
	if o.setupOnly {
		rep.set("setup_s", setup.Seconds(), 1)
		return rep, nil
	}

	rounds := max(o.sz.loopRounds, int(o.seconds/o.sz.secPerRound+0.5))
	if o.trace {
		rounds = max(2, rounds/2) // the decomposition takes the other half
		tr.enable(true)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := l.f.counters()
	var all []cycle
	var swaps []swap
	var lastRound []cycle
	start := time.Now()
	for r := 0; r < rounds; r++ {
		cycles, sw, err := l.round(r)
		if err != nil {
			return nil, err
		}
		all = append(all, cycles...)
		swaps = append(swaps, sw)
		lastRound = cycles
	}
	wall := time.Since(start)
	tr.enable(false)
	c1 := l.f.counters()
	runtime.ReadMemStats(&m1)
	rss, peak := settledRSSMiB(), peakRSSMiB()

	pick := func(f func(cycle) float64, keep func(cycle) bool) []float64 {
		var out []float64
		for _, c := range all {
			if c.ok && keep(c) {
				out = append(out, f(c))
			}
		}
		return out
	}
	every := func(cycle) bool { return true }
	totalMS := pick(func(c cycle) float64 { return ms(c.total) }, every)
	cps := float64(len(totalMS)) / wall.Seconds()

	var f2s, fwd, retrain []float64
	for _, s := range swaps {
		f2s = append(f2s, ms(s.forwardWait+s.retrain+s.rollout))
		fwd = append(fwd, ms(s.forwardWait))
		retrain = append(retrain, ms(s.retrain))
	}

	if !o.trace {
		// The loop's latency is the time to learn: last feedback ack of a
		// round → both replicas serve the retrained network. (A cycle's own
		// latency is bimodal — a ~2 ms fast-path cycle or a ~100 ms search
		// cycle — so its median says which mode won, not how fast either is;
		// the traced run reports the cycle's three legs.)
		rep.set("setup_s", setup.Seconds(), 1)
		rep.set("op_p50_ms", median(f2s), len(f2s))
		rep.set("ops_per_s", cps, len(totalMS))
		rep.set("rss_mb", rss, 1)
		return rep, nil
	}

	optMS := pick(func(c cycle) float64 { return ms(c.optimize) }, every)
	rep.set("optimize_p50_ms", median(optMS), len(optMS))
	if p95, err := percentile(optMS, 95); err == nil {
		rep.set("optimize_p95_ms", p95, len(optMS))
	}
	fbMS := pick(func(c cycle) float64 { return ms(c.feedback) }, every)
	rep.set("feedback_p50_ms", median(fbMS), len(fbMS))
	execMS := pick(func(c cycle) float64 { return ms(c.exec) }, every)
	rep.set("exec_p50_ms", median(execMS), len(execMS))
	rep.set("loop_cps", cps, len(totalMS))
	rep.set("failed_share", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	// Tracing overhead, paired per spec across two consecutive rounds (a
	// fast-path-class spec gets the same plan in both).
	var overhead []float64
	for i := len(l.items); i < len(all); i++ {
		a, b := all[i-len(l.items)], all[i]
		if a.ok && b.ok && a.traced != b.traced {
			if b.traced {
				a, b = b, a
			}
			overhead = append(overhead, float64(a.total)/float64(b.total)-1)
		}
	}
	rep.set("trace.overhead_share", median(overhead), len(overhead))

	rep.set("feedback_to_served_ms", median(f2s), len(f2s))
	rep.set("replica.forward_wait_ms", median(fwd), len(fwd))
	rep.set("trainer.retrain_ms", median(retrain), len(retrain))

	spans := adopt(tr.snapshot(), "trainer.snapshot", "serve.swap")
	durs := func(name string) []float64 {
		var out []float64
		for _, sp := range spans {
			if sp.Name == name {
				out = append(out, float64(sp.End-sp.Start))
			}
		}
		return out
	}
	scale := func(xs []float64, by float64) []float64 {
		for i := range xs {
			xs[i] /= by
		}
		return xs
	}
	fbHandler := scale(durs("serve.feedback"), 1e3)
	rep.set("serve.feedback_handler_us", median(fbHandler), len(fbHandler))
	swapMS := scale(durs("serve.swap"), 1e6)
	rep.set("serve.swap_ms", median(swapMS), len(swapMS))
	expMS := scale(durs("trainer.experience"), 1e6)
	rep.set("trainer.experience_ms", median(expMS), len(expMS))
	getMS := scale(durs("trainer.snapshot"), 1e6)
	rep.set("trainer.snapshot_get_ms", median(getMS), len(getMS))
	// The decomposition must add up: what the operator waits for after the
	// last ack is forwarding, retraining and the replicas' loads.
	parts := median(fwd) + median(retrain) + median(swapMS)
	if whole := median(f2s); parts < 0.9*whole || parts > 1.1*whole {
		rep.invalid("feedback_to_served_ms %.1f is not forward_wait + retrain + swap = %.1f within 10%%", whole, parts)
	}

	var forwarded, dropped uint64
	for _, st := range l.f.client.Stats(context.Background()) {
		if st.Cluster != nil {
			forwarded += st.Cluster.Forwarded
			dropped += st.Cluster.Dropped
		}
	}
	rep.set("replica.forwarded", float64(forwarded), len(all))
	rep.set("replica.dropped", float64(dropped), len(all))

	reportCounters(rep, c1.minus(c0), c1.minus(c0)) // both clients are in flight throughout a round
	setRuntime(rep, &m0, &m1, len(all), peak)

	// Plan quality where the loop stands: the last round's measured
	// latencies against the native optimizer's plans on the same backend.
	neoSum, nativeSum := 0.0, 0.0
	for k, it := range l.items {
		sys := l.f.owner(&it.spec).sys
		if np, err := sys.NativePlan(it.query); err == nil && lastRound[k].ok {
			if nlat, err := sys.Execute(np); err == nil {
				neoSum += lastRound[k].execMS
				nativeSum += nlat
			}
		}
	}
	rep.set("quality_ratio", ratio(neoSum, nativeSum), len(l.items))

	// Layer decomposition on a cold twin at the version the fleet now serves.
	twin, err := l.f.openReplica(filepath.Join(l.f.dataRoot, "twin"))
	if err != nil {
		return nil, err
	}
	defer closeReplica(twin)
	tr.enable(true)
	ls := decompose(twin.sys, route.Auto, tr, inprocReqBase, l.items, rep)
	ls.report(rep)
	queries := make([]*neo.Query, len(l.items))
	for k, it := range l.items {
		queries[k] = it.query
	}
	probeSystem(twin.sys, tr, queries, rep)
	tr.enable(false)
	_, err = writeTrace(o.outDir, "learn-loop", adopt(tr.snapshot(), "trainer.snapshot", "serve.swap"))
	return rep, err
}

// adopt parents every orphan span named child to the span named parent whose
// interval contains it: the replica's snapshot download carries no request
// tag, but it happens inside that replica's /admin/snapshot handler.
func adopt(spans []span, child, parent string) []span {
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		for _, p := range spans {
			if p.Name == parent && p.Start <= c.Start && c.End <= p.End {
				c.Parent, c.Req = p.ID, p.Req
				break
			}
		}
	}
	return spans
}

package main

import (
	"bytes"
	"runtime"
	"time"

	"neo/internal/engine"
	"neo/internal/fastpath"
	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/route"
	"neo/internal/search"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
	"neo/pkg/neo"
)

// timedScorer mirrors core.netScorer — Featurizer.EncodePlan for every plan
// of the batch, then one PredictBatch on the frozen snapshot — with each half
// timed and recorded as a child span of the search. It scores on the raw
// snapshot, never through the fusion scheduler, so the difference to the
// system's own scorer is the scheduler's cost.
type timedScorer struct {
	feat *feature.Featurizer
	snap *valuenet.Snapshot
	qEnc []float64

	tr          *tracer
	parent, req int

	encode, forward time.Duration
	batches, rows   int
	queries         [][]float64
	forests         [][]*treeconv.Tree
}

func (s *timedScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	t0 := time.Now()
	s.queries, s.forests = s.queries[:0], s.forests[:0]
	for _, p := range ps {
		s.queries = append(s.queries, s.qEnc)
		s.forests = append(s.forests, s.feat.EncodePlan(p))
	}
	t1 := time.Now()
	out := s.snap.PredictBatch(s.queries, s.forests)
	t2 := time.Now()
	s.encode += t1.Sub(t0)
	s.forward += t2.Sub(t1)
	s.batches++
	s.rows += len(ps)
	s.tr.add("feature.encode_plan", s.parent, s.req, t0, t1)
	s.tr.add("valuenet.predict", s.parent, s.req, t1, t2)
	return out
}

// stopwatchScorer times another scorer's ScoreBatch calls as a whole.
type stopwatchScorer struct {
	inner search.BatchScorer
	total time.Duration
}

func (s *stopwatchScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	t0 := time.Now()
	out := s.inner.ScoreBatch(ps)
	s.total += time.Since(t0)
	return out
}

// layerSamples collects the per-query measurements of decompose; every slice
// holds one value per query that entered the layer.
type layerSamples struct {
	signatureUS, decideNS, fastpathUS, scorerBuildUS, encodeQueryUS []float64
	searchTotalMS, searchSelfMS, encodePlanMS, forwardMS, schedMS   []float64
	expansions, plansScored, scoreBatches                           []float64
	encodePerPlanUS, forwardPerRowUS, cacheHitUS                    []float64
	// inprocNS[i] is the whole in-process planning time of items[i], the
	// layers' sum that trace.coverage holds against the handler's time;
	// planned[i] is the plan the layer calls produced (nil if they failed).
	inprocNS []float64
	planned  []*plan.Plan
	overhead []float64 // per item: traced ÷ untraced in-process time − 1
}

type decomposer struct {
	sys    *neo.System
	rep    *report
	router *route.Router
	opts   search.Options
}

// cacheProbeN bounds how many queries pay an extra System.Optimize to seed
// the plan cache for the cache-hit probe.
const cacheProbeN = 8

// decompose plans each item on sys through the layer calls in the order
// pkg/neo and core nest them — signature, route decision, then the fast path
// or scorer construction and best-first search with the timed scorer —
// recording one span per call under a neo.optimize root. sys must not have
// the items cached (a cold-cache twin); mode is the routing mode sys runs.
// Every item is planned twice, first without the tracer: searches are
// deterministic, so the two do the same work back to back, and the ratio of
// their times is the tracing overhead of the in-process path.
func decompose(sys *neo.System, mode route.Mode, tr *tracer, reqBase int, items []item, rep *report) *layerSamples {
	ls := &layerSamples{}
	d := decomposer{sys: sys, rep: rep, router: route.New(mode, route.Policy{}),
		opts: search.Options{Catalog: sys.Catalog, MaxExpansions: sys.Config.SearchExpansions}}
	for i, it := range items {
		plain := d.plan(it.query, 0, nil, &layerSamples{})
		traced := d.plan(it.query, reqBase+i, tr, ls)
		ls.overhead = append(ls.overhead, float64(traced)/float64(plain)-1)
		rep.op(ls.planned[i] != nil)
	}

	// neo.cache_hit_us: System.Optimize on a cached signature, best of a few
	// repeats per query so a timer tick does not dominate a ~µs call.
	for i := 0; i < len(items) && i < cacheProbeN; i++ {
		q := items[i].query
		if _, _, err := sys.Optimize(q); err != nil {
			continue
		}
		var hits []float64
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			_, _, _ = sys.Optimize(q)
			hits = append(hits, us(time.Since(t0)))
		}
		ls.cacheHitUS = append(ls.cacheHitUS, median(hits))
	}
	return ls
}

// plan renders the plan the layer calls produced for item i ("" if none).
func (ls *layerSamples) plan(i int) string {
	if ls.planned[i] == nil {
		return ""
	}
	return ls.planned[i].String()
}

// report sets the per-layer metrics decompose measured.
func (ls *layerSamples) report(rep *report) {
	set := func(name string, xs []float64) { rep.set(name, median(xs), len(xs)) }
	set("query.signature_us", ls.signatureUS)
	set("route.decide_ns", ls.decideNS)
	set("fastpath.plan_us", ls.fastpathUS)
	set("core.scorer_build_us", ls.scorerBuildUS)
	set("feature.encode_query_us", ls.encodeQueryUS)
	set("search.total_ms", ls.searchTotalMS)
	set("search.self_ms", ls.searchSelfMS)
	set("search.expansions", ls.expansions)
	set("search.plans_scored", ls.plansScored)
	set("search.score_batches", ls.scoreBatches)
	set("feature.encode_plan_ms", ls.encodePlanMS)
	set("feature.encode_plan_us_per_plan", ls.encodePerPlanUS)
	set("valuenet.forward_ms", ls.forwardMS)
	set("valuenet.forward_us_per_row", ls.forwardPerRowUS)
	set("sched.overhead_ms", ls.schedMS)
	set("neo.cache_hit_us", ls.cacheHitUS)
}

// probeSystem measures the layers that are direct calls on any System:
// checkpoint encode/decode, snapshot footprint, a retraining round, and
// execution of the native optimizer's plans for the given queries on the
// simulated engine and, when sys runs the disk engine, on disk. It leaves sys
// retrained and reloaded, so it runs last.
func probeSystem(sys *neo.System, tr *tracer, queries []*neo.Query, rep *report) {
	info := sys.SnapshotInfo()
	rep.set("valuenet.snapshot_bytes", float64(info.ParamBytes+info.PanelBytes), 1)

	// Execution: the same fixed plans on both backends, single-threaded so
	// the Mallocs delta belongs to the executor alone.
	sim := engine.New(engine.PostgreSQLProfile(), sys.DB)
	_, onDisk := sys.StorageStats()
	var simMS, diskMS, diskAllocs []float64
	st0, _ := sys.StorageStats()
	for i, q := range queries {
		p, err := sys.NativePlan(q)
		if err != nil {
			continue
		}
		t0 := time.Now()
		_, _, err = sim.Execute(p)
		if err == nil {
			simMS = append(simMS, ms(time.Since(t0)))
		}
		if !onDisk {
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		_, _, err = sys.Engine.Execute(p)
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		if err == nil {
			tr.add("engine.execute", 0, -1-i, t0, t1)
			diskMS = append(diskMS, ms(t1.Sub(t0)))
			diskAllocs = append(diskAllocs, float64(m1.Mallocs-m0.Mallocs))
		}
	}
	rep.set("executor.sim_exec_ms", median(simMS), len(simMS))
	rep.set("executor.disk_exec_ms", median(diskMS), len(diskMS))
	rep.set("executor.disk_allocs_per_exec", median(diskAllocs), len(diskAllocs))
	if onDisk {
		st1, _ := sys.StorageStats()
		reads := float64(st1.Hits + st1.Misses - st0.Hits - st0.Misses)
		rep.set("storage.pool_hit_share", ratio(float64(st1.Hits-st0.Hits), reads), int(reads))
		rep.set("storage.evictions", float64(st1.Evictions-st0.Evictions), len(diskMS))
		rep.set("storage.bytes_read", float64(st1.BytesRead-st0.BytesRead), len(diskMS))
	}

	// core.Retrain on the experience sys holds (a replica twin holds the
	// trainer's, restored from the snapshot).
	rep.set("core.experience_len", float64(sys.Neo.Experience.Len()), 1)
	if sys.Neo.Experience.Len() > 0 {
		sp := tr.begin("core.retrain", 0, 0)
		t0 := time.Now()
		sys.Neo.Retrain()
		rep.set("core.retrain_ms", ms(time.Since(t0)), 1)
		tr.finish(sp)
	}

	// NEOCKPT1 encode and decode on a buffer.
	var buf bytes.Buffer
	t0 := time.Now()
	err := sys.SaveCheckpoint(&buf)
	save := time.Since(t0)
	if rep.check("checkpoint", err == nil, "SaveCheckpoint: %v", err) {
		rep.set("checkpoint.save_ms", ms(save), 1)
		rep.set("checkpoint.snapshot_bytes", float64(buf.Len()), 1)
		t0 = time.Now()
		err = sys.LoadCheckpoint(bytes.NewReader(buf.Bytes()))
		load := time.Since(t0)
		if rep.check("checkpoint", err == nil, "LoadCheckpoint: %v", err) {
			rep.set("checkpoint.load_ms", ms(load), 1)
		}
	}
}

// plan runs one query through the layer calls, appending its measurements to
// ls and its spans (if any) to tr. It returns the time the layer calls took,
// before the scheduler's cost (measured only on the traced pass) is added.
func (d *decomposer) plan(q *neo.Query, req int, tr *tracer, ls *layerSamples) time.Duration {
	sys, rep, cat, router := d.sys, d.rep, d.sys.Catalog, d.router
	root := tr.begin("neo.optimize", 0, req)
	start := time.Now()
	var layers, sched time.Duration

	t0 := time.Now()
	_ = q.Signature()
	t1 := time.Now()
	tr.add("query.signature", root, req, t0, t1)
	ls.signatureUS = append(ls.signatureUS, us(t1.Sub(t0)))

	dec := router.Decide(q)
	t2 := time.Now()
	tr.add("route.decide", root, req, t1, t2)
	ls.decideNS = append(ls.decideNS, float64(t2.Sub(t1)))

	var planned *plan.Plan
	if dec.Fastpath {
		fr, err := fastpath.Plan(q, cat)
		t3 := time.Now()
		tr.add("fastpath.plan", root, req, t2, t3)
		ls.fastpathUS = append(ls.fastpathUS, us(t3.Sub(t2)))
		if rep.check("layer-plan", err == nil, "fastpath.Plan(%s): %v", q.ID, err) {
			planned = fr.Plan
		}
		tr.finish(root)
		layers = time.Since(start)
	} else {
		scorer := sys.Neo.Scorer(q) // encodes and caches the query, pins the snapshot
		t3 := time.Now()
		tr.add("core.scorer", root, req, t2, t3)
		ls.scorerBuildUS = append(ls.scorerBuildUS, us(t3.Sub(t2)))

		sp := tr.begin("search.bestfirst", root, req)
		ts := &timedScorer{feat: sys.Featurizer, snap: sys.Neo.Snapshot(), qEnc: sys.Featurizer.EncodeQuery(q), tr: tr, parent: sp, req: req}
		t4 := time.Now()
		res, err := search.BestFirst(q, ts, d.opts)
		total := time.Since(t4)
		tr.finish(sp)
		tr.finish(root)
		layers = time.Since(start)
		if rep.check("layer-plan", err == nil, "search.BestFirst(%s): %v", q.ID, err) {
			planned = res.Plan
			ls.searchTotalMS = append(ls.searchTotalMS, ms(total))
			ls.searchSelfMS = append(ls.searchSelfMS, ms(total-ts.encode-ts.forward))
			ls.encodePlanMS = append(ls.encodePlanMS, ms(ts.encode))
			ls.forwardMS = append(ls.forwardMS, ms(ts.forward))
			ls.expansions = append(ls.expansions, float64(res.Expansions))
			ls.plansScored = append(ls.plansScored, float64(ts.rows))
			ls.scoreBatches = append(ls.scoreBatches, float64(ts.batches))
			ls.encodePerPlanUS = append(ls.encodePerPlanUS, us(ts.encode)/float64(ts.rows))
			ls.forwardPerRowUS = append(ls.forwardPerRowUS, us(ts.forward)/float64(ts.rows))
		}
		// The system's own scorer on the same search: what it spends in
		// ScoreBatch beyond encoding and the direct forward pass is the
		// fusion scheduler (queueing, row hashing, score cache). A request
		// pays it on top of the layers timed above.
		if err == nil && tr != nil && sys.Config.FuseScoring {
			sw := &stopwatchScorer{inner: scorer}
			own, err := search.BestFirst(q, sw, d.opts)
			if rep.check("layer-plan", err == nil && own.Plan.String() == planned.String(),
				"%s: timed scorer planned %v, the system's scorer %v (err %v)", q.ID, planned, own, err) {
				sched = sw.total - ts.encode - ts.forward
				ls.schedMS = append(ls.schedMS, ms(sched))
			}
		}
	}
	ls.inprocNS = append(ls.inprocNS, float64(layers+sched))
	ls.planned = append(ls.planned, planned)

	// feature.encode_query_us: scorer construction hides it behind core's
	// encoding cache, so time the featurizer directly.
	t5 := time.Now()
	sys.Featurizer.EncodeQuery(q)
	ls.encodeQueryUS = append(ls.encodeQueryUS, us(time.Since(t5)))
	return layers
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"neo/internal/route"
	"neo/pkg/neo"
)

// trainStrata: train-episodes' queries rotate through 2, 3, 4, 5 and 6 joins,
// so every seed trains on the same mix of search sizes.
const trainStrata = 5

// runTrainEpisodes is the offline workload: the pkg/neo API on the simulated
// postgres engine — Open, Bootstrap on the generated training queries,
// refinement episodes through Train, and a held-out comparison against the
// native optimizer. The system is the same for every seed; the seed generates
// the queries. The episode count is -seconds over the reference box's episode
// time, so a seed fixes the work and the result.
func runTrainEpisodes(o options) (*report, error) {
	rep := newReport("train-episodes", o.seed, o.trace)
	episodes := max(2, int(o.seconds/o.sz.secPerEp+0.5))
	if o.trace {
		episodes = max(1, episodes/2) // then one more, decomposed
	}
	sys, err := neo.Open(neo.Config{
		Dataset: "imdb", Engine: "postgres", Encoding: o.sz.encoding, Scale: o.sz.scale, Seed: daemonSeed,
		SearchExpansions: o.sz.expansions, Episodes: 1, ValueNet: o.sz.valueNet,
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	items, err := genItems(sys.DB, o.sz.trainN+o.sz.heldOutN, o.seed, trainStrata, func(q *neo.Query, _ bool) int {
		if len(q.Joins) < 2 || len(q.Joins) >= 2+trainStrata {
			return -1
		}
		return len(q.Joins) - 2
	})
	if err != nil {
		return nil, err
	}
	queries := make([]*neo.Query, len(items))
	for i, it := range items {
		queries[i] = it.query
	}
	train, held := queries[:o.sz.trainN], queries[o.sz.trainN:]
	if err := sys.Bootstrap(train); err != nil {
		return nil, err
	}
	setup := time.Since(processStart)
	if o.setupOnly {
		rep.set("setup_s", setup.Seconds(), 1)
		return rep, nil
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var episodeS []float64
	start := time.Now()
	for ep := 0; ep < episodes; ep++ {
		t0 := time.Now()
		stats, err := sys.Train(train) // Config.Episodes is 1: one episode per call, timed from outside
		episodeS = append(episodeS, time.Since(t0).Seconds())
		ok := rep.check("episodes", err == nil && len(stats) == 1 && stats[0].NormalizedLatency > 0 && !math.IsInf(stats[0].NormalizedLatency, 0),
			"episode %d: %v (err %v)", ep+1, stats, err)
		rep.op(ok)
		if !ok {
			return nil, fmt.Errorf("episode %d failed: %v", ep+1, err)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	rss, peak := settledRSSMiB(), peakRSSMiB()

	// Held-out comparison: Σ Neo-plan latency ÷ Σ native-plan latency, and
	// each Neo plan's row count against an independent count of the query.
	neoSum, nativeSum := 0.0, 0.0
	for _, q := range held {
		nl, bl, err := sys.Compare(q)
		ok := rep.check("compare", err == nil && nl > 0 && bl > 0, "%s: neo %v native %v err %v", q.ID, nl, bl, err)
		if ok {
			neoSum += nl
			nativeSum += bl
			want, exact, werr := trueRows(sys, q)
			p, _, _ := sys.Optimize(q) // the plan Compare just cached
			_, res, xerr := sys.Engine.Execute(p)
			ok = rep.check("rows", werr == nil && xerr == nil && (!exact || !exactResult(res) || res.OutputRows == want),
				"%s: plan returned %v rows (err %v), query has %v (err %v)", q.ID, res, xerr, want, werr)
		}
		rep.op(ok)
	}
	quality := ratio(neoSum, nativeSum)

	if !o.trace {
		rep.set("setup_s", setup.Seconds(), 1)
		rep.set("op_p50_ms", 1000*median(episodeS), len(episodeS))
		rep.set("ops_per_s", float64(episodes*len(train))/wall.Seconds(), episodes*len(train))
		rep.set("rss_mb", rss, 1)
		return rep, nil
	}

	rep.set("episode_s", median(episodeS), len(episodeS))
	rep.set("quality_ratio", quality, len(held))
	rep.set("failed_share", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	setRuntime(rep, &m0, &m1, episodes*len(train), peak)

	// One more episode, decomposed: every training query planned through the
	// layer calls, its plan executed and added to the experience, then one
	// retraining round inside probeSystem.
	tr := newTracer()
	ls := decompose(sys, route.Full, tr, inprocReqBase, items[:o.sz.trainN], rep)
	ls.report(rep)
	rep.set("trace.overhead_share", median(ls.overhead), len(ls.overhead))
	for i, p := range ls.planned {
		if p == nil {
			continue
		}
		t0 := time.Now()
		lat, _, err := sys.Engine.Execute(p)
		if err == nil {
			tr.add("engine.execute", 0, inprocReqBase+i, t0, time.Now())
			sys.Neo.Experience.Add(train[i], p, lat)
		}
	}
	probeSystem(sys, tr, held, rep)
	_, err = writeTrace(o.outDir, "train-episodes", tr.snapshot())
	return rep, err
}

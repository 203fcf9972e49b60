package experiments

import (
	"fmt"
	"math"
	"sort"

	"neo/internal/core"
	"neo/internal/embedding"
	"neo/internal/executor"
	"neo/internal/expert"
	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/search"
	"neo/internal/stats"
	"neo/internal/storage"
)

// Table2 reproduces Table 2: cosine similarity between keyword and genre
// row vectors versus the true cardinality of the corresponding two-predicate
// join query, for the keyword/genre pairs the paper lists.
func Table2(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "table2",
		Title:  "Row-vector similarity vs. true cardinality (keyword × genre)",
		Header: []string{"keyword", "genre", "similarity", "cardinality"},
	}
	model := env.Embedding("job", true)
	exec := executor.New(env.DBs["job"])
	pairs := []struct{ keyword, genre string }{
		{"love", "romance"}, {"love", "action"}, {"love", "horror"},
		{"fight", "action"}, {"fight", "romance"}, {"fight", "horror"},
	}
	for _, pr := range pairs {
		sim := model.Similarity(
			embedding.TokenPrefix("keyword", "keyword")+pr.keyword,
			embedding.TokenPrefix("movie_info", "info")+pr.genre,
		)
		card, err := exec.Count(keywordGenreQuery(pr.keyword, pr.genre))
		if err != nil {
			return nil, err
		}
		rep.AddRow(pr.keyword, pr.genre, sim, fmt.Sprintf("%.0f", card))
	}
	rep.AddNote("paper shape: correlated pairs (love/romance, fight/action) have both higher similarity and higher cardinality")
	return rep, nil
}

// keywordGenreQuery builds the five-table query of Figure 8 for a given
// keyword and genre.
func keywordGenreQuery(keyword, genre string) *query.Query {
	return query.New("table2-"+keyword+"-"+genre,
		[]string{"title", "movie_keyword", "keyword", "movie_info", "info_type"},
		[]query.JoinPredicate{
			{LeftTable: "movie_keyword", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_keyword", LeftColumn: "keyword_id", RightTable: "keyword", RightColumn: "id"},
			{LeftTable: "movie_info", LeftColumn: "movie_id", RightTable: "title", RightColumn: "id"},
			{LeftTable: "movie_info", LeftColumn: "info_type_id", RightTable: "info_type", RightColumn: "id"},
		},
		[]query.Predicate{
			{Table: "info_type", Column: "id", Op: query.Eq, Value: storage.IntValue(3)},
			{Table: "keyword", Column: "keyword", Op: query.Like, Value: storage.StringValue(keyword)},
			{Table: "movie_info", Column: "info", Op: query.Like, Value: storage.StringValue(genre)},
		})
}

// Figure9 reproduces Figure 9: Neo's relative performance (total test-set
// latency divided by the native optimizer's) per engine and workload, after
// the configured number of training episodes with the R-Vector encoding.
func Figure9(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure9",
		Title:  "Relative performance vs. native optimizer (lower is better)",
		Header: []string{"engine", "workload", "neo/native", "pg-plans/native"},
	}
	for _, engName := range env.Config.engines() {
		for _, wlName := range env.Config.workloads() {
			run, err := env.TrainNeo(wlName, engName, feature.RVector, core.WorkloadCost, false)
			if err != nil {
				return nil, err
			}
			rel, err := run.EvaluateRelative()
			if err != nil {
				return nil, err
			}
			pgRel := run.PGTestLatency / max(run.NativeTestLatency, 1e-9)
			rep.AddRow(engName, wlName, rel, pgRel)
		}
	}
	rep.AddNote("paper shape: Neo at or below 1.0 on JOB/Corp for every engine; TPC-H closer to (or slightly above) 1.0 on the commercial engines")
	return rep, nil
}

// Figure10 reproduces the learning curves of Figure 10: normalised test-set
// latency (relative to the native optimizer) per training episode, plus the
// constant "PostgreSQL plans on this engine" reference line.
func Figure10(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure10",
		Title:  "Learning curves: normalised latency vs. training episode",
		Header: []string{"engine", "workload", "episode", "neo/native", "pg/native"},
	}
	for _, engName := range env.Config.engines() {
		for _, wlName := range env.Config.workloads() {
			run, err := env.TrainNeo(wlName, engName, feature.RVector, core.WorkloadCost, true)
			if err != nil {
				return nil, err
			}
			pgRel := run.PGTestLatency / max(run.NativeTestLatency, 1e-9)
			for i, v := range run.Curve {
				rep.AddRow(engName, wlName, i+1, v, pgRel)
			}
		}
	}
	rep.AddNote("paper shape: curves start above 1.0 (or above the pg line), drop sharply within the first episodes, then flatten")
	return rep, nil
}

// Figure11 reproduces Figure 11: the training cost (value-network training
// time and cumulative query-execution time) until Neo first matches (a) the
// PostgreSQL plans executed on the engine and (b) the native optimizer.
func Figure11(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure11",
		Title:  "Training cost to reach the PostgreSQL-plan and native-optimizer milestones",
		Header: []string{"engine", "milestone", "episodes", "nn_time_s", "exec_time_s(simulated)"},
	}
	wlName := "job"
	for _, engName := range env.Config.engines() {
		run, err := env.TrainNeo(wlName, engName, feature.RVector, core.WorkloadCost, true)
		if err != nil {
			return nil, err
		}
		pgRel := run.PGTestLatency / max(run.NativeTestLatency, 1e-9)
		pgEp := firstAtOrBelow(run.Curve, pgRel)
		natEp := firstAtOrBelow(run.Curve, 1.0)
		nn := run.Neo.Learner.TrainingTime().Seconds()
		exec := run.Engine.SimulatedTimeMS() / 1000
		addMilestone := func(name string, ep int) {
			if ep < 0 {
				rep.AddRow(engName, name, "not reached", fmt.Sprintf("%.1f", nn), fmt.Sprintf("%.1f", exec))
				return
			}
			frac := float64(ep) / float64(len(run.Curve))
			rep.AddRow(engName, name, ep, fmt.Sprintf("%.1f", nn*frac), fmt.Sprintf("%.1f", exec*frac))
		}
		addMilestone("postgres-plans", pgEp)
		addMilestone("native-optimizer", natEp)
	}
	rep.AddNote("paper shape: matching PostgreSQL takes far less time than matching the commercial optimizers; execution time dominates NN time")
	return rep, nil
}

func firstAtOrBelow(curve []float64, threshold float64) int {
	for i, v := range curve {
		if v <= threshold {
			return i + 1
		}
	}
	return -1
}

// Figure12 reproduces Figure 12: the featurization ablation (R-Vector,
// R-Vector without joins, Histogram, 1-Hot) on the JOB workload.
func Figure12(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure12",
		Title:  "Featurization ablation on JOB (relative to native optimizer)",
		Header: []string{"engine", "encoding", "neo/native"},
	}
	engines := env.Config.engines()
	for _, engName := range engines {
		for _, enc := range feature.AllEncodings() {
			run, err := env.TrainNeo("job", engName, enc, core.WorkloadCost, false)
			if err != nil {
				return nil, err
			}
			rel, err := run.EvaluateRelative()
			if err != nil {
				return nil, err
			}
			rep.AddRow(engName, string(enc), rel)
		}
	}
	rep.AddNote("paper shape: R-Vector best, R-Vector(no joins) close behind, then Histogram, then 1-Hot")
	return rep, nil
}

// Figure13 reproduces Figure 13: generalisation to the entirely-new Ext-JOB
// queries, before and after five additional training episodes that include
// them.
func Figure13(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure13",
		Title:  "Performance on entirely new queries (Ext-JOB), before and after 5 extra episodes",
		Header: []string{"engine", "encoding", "before(neo/native)", "after(neo/native)"},
	}
	engName := env.Config.engines()[0]
	ext := env.ExtJOB.Queries
	for _, enc := range feature.AllEncodings() {
		run, err := env.TrainNeo("job", engName, enc, core.WorkloadCost, false)
		if err != nil {
			return nil, err
		}
		// Native baseline on the Ext-JOB queries.
		var nativeTotal float64
		for _, q := range ext {
			p, _, err := run.Native.Optimize(q)
			if err != nil {
				return nil, err
			}
			lat, _, err := run.Engine.Execute(p)
			if err != nil {
				return nil, err
			}
			nativeTotal += lat
		}
		beforeTotal, _, err := run.Neo.Learner.Evaluate(ext)
		if err != nil {
			return nil, err
		}
		// Five additional episodes over train ∪ ext (learning the new queries).
		combined := append(append([]*query.Query{}, run.Train...), ext...)
		for ep := 1; ep <= 5; ep++ {
			if _, err := run.Neo.Learner.RunEpisode(env.Config.Episodes+ep, combined); err != nil {
				return nil, err
			}
		}
		afterTotal, _, err := run.Neo.Learner.Evaluate(ext)
		if err != nil {
			return nil, err
		}
		rep.AddRow(engName, string(enc), beforeTotal/max(nativeTotal, 1e-9), afterTotal/max(nativeTotal, 1e-9))
	}
	rep.AddNote("paper shape: R-Vector generalises best before refinement; all encodings improve markedly after seeing the new queries a few times")
	return rep, nil
}

// Figure14 reproduces the robustness experiment of Figure 14: two value
// models are trained with an extra per-node cardinality feature (PostgreSQL
// histogram estimates vs. true cardinalities); the spread of the network
// outputs' shift under injected cardinality error (2 and 5 orders of
// magnitude) from the unperturbed outputs is then measured separately for
// plans with at most 3 joins and with more than 3 joins.
func Figure14(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure14",
		Title:  "Robustness to cardinality-estimation error (std-dev of value-network output shift)",
		Header: []string{"cardinality source", "joins", "error(orders)", "output shift (stddev)"},
	}
	wlName := "job"
	engName := env.Config.engines()[0]
	db := env.DBs[wlName]
	st := env.Stats[wlName]
	exec := executor.New(db)

	sources := []struct {
		name string
		src  feature.CardinalitySource
	}{
		{"postgres-estimate", &feature.HistogramCardinality{Stats: st}},
		{"true-cardinality", &feature.TrueCardinality{Counter: exec}},
	}
	for _, source := range sources {
		eng, err := env.Engine(wlName, engName)
		if err != nil {
			return nil, err
		}
		feat := env.Featurizer(wlName, feature.Histogram)
		feat.Cardinality = source.src
		n := core.New(eng, feat, env.neoConfig(core.WorkloadCost))
		train, _ := env.Split(wlName)
		pg := env.PGExpert(wlName)
		if err := n.Bootstrap(train, func(q *query.Query) (*plan.Plan, error) {
			p, _, err := pg.Optimize(q)
			return p, err
		}); err != nil {
			return nil, err
		}
		// Evaluate output shift per join bucket and error level.
		for _, bucket := range []string{"<=3", ">3"} {
			base := outputsForBucket(n, bucket, 0, env.Config.Seed)
			for _, orders := range []float64{2, 5} {
				shifted := outputsForBucket(n, bucket, orders, env.Config.Seed+int64(orders))
				rep.AddRow(source.name, bucket, fmt.Sprintf("%.0f", orders), stddevDiff(base, shifted))
			}
		}
	}
	rep.AddNote("paper shape: with PostgreSQL estimates the output barely moves for >3-join plans (Neo learned to distrust them) but varies for <=3-join plans; with true cardinalities the output varies in both buckets")
	return rep, nil
}

// outputsForBucket computes value-network outputs over the experienced plans
// whose join count falls in the bucket, with the cardinality feature
// perturbed by the given number of orders of magnitude.
func outputsForBucket(n *core.Neo, bucket string, orders float64, seed int64) []float64 {
	var errModel *stats.ErrorModel
	if orders > 0 {
		errModel = stats.NewErrorModel(orders, seed)
	}
	snap := n.Snapshot()
	var out []float64
	for _, entry := range n.Experience.Entries() {
		joins := entry.Query.NumJoins()
		if (bucket == "<=3" && joins > 3) || (bucket == ">3" && joins <= 3) {
			continue
		}
		enc := n.Featurizer.NewPlanEncoder(entry.Plan.Query, plan.NewNodes())
		enc.Error = errModel
		roots := enc.AppendIDs(nil, entry.Plan)
		out = append(out, snap.NewScorer(n.Featurizer.EncodeQuery(entry.Query), enc).Normalized([][]int32{roots})...)
	}
	return out
}

func stddevDiff(base, shifted []float64) float64 {
	nMin := min(len(base), len(shifted))
	if nMin == 0 {
		return 0
	}
	diffs := make([]float64, nMin)
	var mean float64
	for i := 0; i < nMin; i++ {
		diffs[i] = shifted[i] - base[i]
		mean += diffs[i]
	}
	mean /= float64(nMin)
	var variance float64
	for _, d := range diffs {
		variance += (d - mean) * (d - mean)
	}
	return math.Sqrt(variance / float64(nMin))
}

// Figure15 reproduces Figure 15: per-query latency difference between Neo's
// plans and the PostgreSQL expert's plans on the same engine, under the two
// cost functions (workload cost vs. relative cost).
func Figure15(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure15",
		Title:  "Per-query difference vs. PostgreSQL plans under the two cost functions",
		Header: []string{"cost function", "queries improved", "queries regressed", "worst regression(ms)", "total saved(ms)"},
	}
	wlName := "job"
	engName := env.Config.engines()[0]
	for _, costFn := range []core.CostFunction{core.WorkloadCost, core.RelativeCost} {
		run, err := env.TrainNeo(wlName, engName, feature.RVector, costFn, false)
		if err != nil {
			return nil, err
		}
		queries := append(append([]*query.Query{}, run.Train...), run.Test...)
		improved, regressed := 0, 0
		worst, saved := 0.0, 0.0
		for _, q := range queries {
			p, _, err := run.Neo.Planner.Optimize(q)
			if err != nil {
				return nil, err
			}
			neoLat, _, err := run.Engine.Simulate(p)
			if err != nil {
				return nil, err
			}
			pgPlan, _, err := run.PG.Optimize(q)
			if err != nil {
				return nil, err
			}
			pgLat, _, err := run.Engine.Simulate(pgPlan)
			if err != nil {
				return nil, err
			}
			diff := pgLat - neoLat // positive = Neo saves time
			saved += diff
			if diff >= 0 {
				improved++
			} else {
				regressed++
				if -diff > worst {
					worst = -diff
				}
			}
		}
		rep.AddRow(costFn.String(), improved, regressed, fmt.Sprintf("%.1f", worst), fmt.Sprintf("%.1f", saved))
	}
	rep.AddNote("paper shape: the workload cost function saves the most total time but regresses a few queries; the relative cost function nearly eliminates regressions at the price of smaller total savings")
	return rep, nil
}

// Figure16 reproduces Figure 16: plan quality as a function of the search
// budget, grouped by the number of joins in the query.
func Figure16(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure16",
		Title:  "Search budget vs. plan quality, grouped by number of joins",
		Header: []string{"joins", "budget(expansions)", "latency/best"},
	}
	wlName := "job"
	engName := env.Config.engines()[0]
	run, err := env.TrainNeo(wlName, engName, feature.RVector, core.WorkloadCost, false)
	if err != nil {
		return nil, err
	}
	budgets := []int{8, 16, 32, 64, 128, 256}
	queries := append(append([]*query.Query{}, run.Train...), run.Test...)
	byJoins := map[int][]*query.Query{}
	for _, q := range queries {
		byJoins[q.NumJoins()] = append(byJoins[q.NumJoins()], q)
	}
	var joinCounts []int
	for j := range byJoins {
		joinCounts = append(joinCounts, j)
	}
	sort.Ints(joinCounts)
	for _, j := range joinCounts {
		group := byJoins[j]
		if len(group) > 3 {
			group = group[:3]
		}
		// Latency per budget, then normalise by the best across budgets.
		latencies := make([]float64, len(budgets))
		for bi, budget := range budgets {
			total := 0.0
			for _, q := range group {
				res, err := search.BestFirst(q, run.Neo.Planner.Scorer(q), search.Options{
					Catalog:       run.Neo.Planner.Featurizer.Catalog,
					MaxExpansions: budget,
				})
				if err != nil {
					return nil, err
				}
				lat, _, err := run.Engine.Simulate(res.Plan)
				if err != nil {
					return nil, err
				}
				total += lat
			}
			latencies[bi] = total
		}
		best := latencies[0]
		for _, l := range latencies {
			if l < best {
				best = l
			}
		}
		for bi, budget := range budgets {
			rep.AddRow(j, budget, latencies[bi]/max(best, 1e-9))
		}
	}
	rep.AddNote("paper shape: queries with few joins reach best quality at tiny budgets; queries with many joins need larger budgets, and budgets beyond ~250 expansions stop helping")
	return rep, nil
}

// Figure17 reproduces Figure 17: row-vector training time for the "joins"
// (partially denormalised) and "no joins" variants on each dataset.
func Figure17(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "figure17",
		Title:  "Row-vector training time per dataset and variant",
		Header: []string{"dataset", "variant", "sentences", "train time (s)", "db size (MB)"},
	}
	for _, wlName := range env.Config.workloads() {
		db := env.DBs[wlName]
		sizeMB := float64(db.ApproxSizeBytes()) / (1024 * 1024)
		for _, joins := range []bool{true, false} {
			m := embedding.TrainRows(db, joins, embedding.Config{Dim: env.Config.EmbeddingDim, Seed: env.Config.Seed})
			variant := "no joins"
			if joins {
				variant = "joins"
			}
			rep.AddRow(wlName, variant, m.Sentences, fmt.Sprintf("%.2f", m.TrainTime.Seconds()), fmt.Sprintf("%.2f", sizeMB))
		}
	}
	rep.AddNote("paper shape: the 'joins' variant is several times slower to train than 'no joins', and training time grows with dataset size")
	return rep, nil
}

// AblationNoDemonstration reproduces the Section 6.3.3 discussion: learning
// without expert demonstration (bootstrapping from random plans with a
// latency clip) converges far more slowly than learning from demonstration.
func AblationNoDemonstration(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "nodemo",
		Title:  "Is demonstration necessary? Expert bootstrap vs. random bootstrap",
		Header: []string{"bootstrap", "episode", "neo/native"},
	}
	wlName := "job"
	engName := env.Config.engines()[0]

	// Expert bootstrap (the normal protocol).
	expertRun, err := env.TrainNeo(wlName, engName, feature.Histogram, core.WorkloadCost, true)
	if err != nil {
		return nil, err
	}
	for i, v := range expertRun.Curve {
		rep.AddRow("expert-demonstration", i+1, v)
	}

	// Random bootstrap: same protocol, but the initial experience comes from
	// random plans (clipped at a timeout, as discussed in the paper).
	eng, err := env.Engine(wlName, engName)
	if err != nil {
		return nil, err
	}
	feat := env.Featurizer(wlName, feature.Histogram)
	n := core.New(eng, feat, env.neoConfig(core.WorkloadCost))
	train, test := env.Split(wlName)
	rp := expert.NewRandomPlanner(env.DBs[wlName].Catalog, env.Config.Seed)
	const timeoutMS = 5000.0
	for _, q := range train {
		p := rp.Plan(q)
		lat, _, err := eng.Execute(p)
		if err != nil {
			return nil, err
		}
		if lat > timeoutMS {
			lat = timeoutMS // timeout clipping destroys part of the signal
		}
		n.Experience.Add(q, p, lat)
		n.SetBaseline(q.ID, lat)
	}
	n.Retrain()
	// Baseline for normalisation: the native optimizer on the test set.
	var nativeTotal float64
	for _, q := range test {
		p, _, err := expertRun.Native.Optimize(q)
		if err != nil {
			return nil, err
		}
		lat, _, err := eng.Execute(p)
		if err != nil {
			return nil, err
		}
		nativeTotal += lat
	}
	for ep := 1; ep <= env.Config.Episodes; ep++ {
		if _, err := n.RunEpisode(ep, train); err != nil {
			return nil, err
		}
		total, _, err := n.Evaluate(test)
		if err != nil {
			return nil, err
		}
		rep.AddRow("random-bootstrap", ep, total/max(nativeTotal, 1e-9))
	}
	rep.AddNote("paper shape: without demonstration the optimizer remains far from the native baseline within the same number of episodes")
	return rep, nil
}

// AblationSearchVsGreedy compares the full best-first search against the
// greedy ("hurry-up" / Q-learning-style) plan construction using the same
// trained value network (Section 4.2 discussion).
func AblationSearchVsGreedy(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "searchvsgreedy",
		Title:  "Best-first search vs. greedy plan construction with the same value network",
		Header: []string{"strategy", "total latency (ms)", "relative to search"},
	}
	run, err := env.TrainNeo("job", env.Config.engines()[0], feature.RVector, core.WorkloadCost, false)
	if err != nil {
		return nil, err
	}
	queries := append(append([]*query.Query{}, run.Train...), run.Test...)
	var searchTotal, greedyTotal float64
	for _, q := range queries {
		sp, _, err := run.Neo.Planner.Optimize(q)
		if err != nil {
			return nil, err
		}
		sLat, _, err := run.Engine.Simulate(sp)
		if err != nil {
			return nil, err
		}
		searchTotal += sLat
		gp, _, err := run.Neo.Planner.OptimizeGreedy(q)
		if err != nil {
			return nil, err
		}
		gLat, _, err := run.Engine.Simulate(gp)
		if err != nil {
			return nil, err
		}
		greedyTotal += gLat
	}
	rep.AddRow("best-first search", fmt.Sprintf("%.1f", searchTotal), 1.0)
	rep.AddRow("greedy (hurry-up)", fmt.Sprintf("%.1f", greedyTotal), greedyTotal/max(searchTotal, 1e-9))
	rep.AddNote("paper shape: combining value estimation with search is less sensitive to model error than greedy action selection")
	return rep, nil
}

// AblationTreeConvVsFlat compares plan search guided by the tree-structured
// encoding against search guided by a flattened encoding (all node vectors
// summed into a single node, destroying the structure that tree convolution
// exploits), using the same trained value network. It isolates the
// contribution of the structural inductive bias tree convolution provides
// (ARCHITECTURE.md, "Layers").
func AblationTreeConvVsFlat(env *Env) (*Report, error) {
	rep := &Report{
		Name:   "treeconvvsflat",
		Title:  "Tree-structured vs. flattened plan encoding (same trained network)",
		Header: []string{"encoding", "total latency (ms)", "relative to tree"},
	}
	wlName := "job"
	engName := env.Config.engines()[0]
	run, err := env.TrainNeo(wlName, engName, feature.Histogram, core.WorkloadCost, false)
	if err != nil {
		return nil, err
	}
	queries := append(append([]*query.Query{}, run.Train...), run.Test...)

	evaluate := func(scorerFor func(q *query.Query) search.BatchScorer) (float64, error) {
		total := 0.0
		for _, q := range queries {
			res, err := search.BestFirst(q, scorerFor(q), search.Options{
				Catalog:       run.Neo.Planner.Featurizer.Catalog,
				MaxExpansions: env.Config.SearchExpansions,
			})
			if err != nil {
				return 0, err
			}
			lat, _, err := run.Engine.Simulate(res.Plan)
			if err != nil {
				return 0, err
			}
			total += lat
		}
		return total, nil
	}

	treeTotal, err := evaluate(func(q *query.Query) search.BatchScorer { return run.Neo.Planner.Scorer(q) })
	if err != nil {
		return nil, err
	}
	flatTotal, err := evaluate(func(q *query.Query) search.BatchScorer { return flatScorer(run.Neo, q) })
	if err != nil {
		return nil, err
	}
	rep.AddRow("tree convolution", fmt.Sprintf("%.1f", treeTotal), 1.0)
	rep.AddRow("flattened", fmt.Sprintf("%.1f", flatTotal), flatTotal/max(treeTotal, 1e-9))
	rep.AddNote("design-choice ablation (ARCHITECTURE.md): destroying plan structure should not beat the tree-convolution encoding")
	return rep, nil
}

// flatScorer scores plans after collapsing the encoded forest into a single
// summed node, through one scorer on the published snapshot per search. The
// summed rows are the scorer's id space, one leaf per scored plan.
func flatScorer(n *core.Neo, q *query.Query) search.BatchScorer {
	enc := n.Featurizer.NewPlanEncoder(q, plan.NewNodes())
	var sums flatRows
	sc := n.Snapshot().NewScorer(n.Featurizer.EncodeQuery(q), &sums)
	var ids []int32
	return search.ScorerFunc(func(p *plan.Plan) float64 {
		ids = enc.AppendIDs(ids[:0], p)
		if len(ids) == 0 {
			return 0
		}
		sum := make([]float64, n.Featurizer.PlanVectorSize())
		// In pre-order: the order of the additions decides the sum's last bits.
		var add func(id int32)
		add = func(id int32) {
			row, l, r := enc.Node(id)
			for i, v := range row {
				sum[i] += v
			}
			if l >= 0 {
				add(l)
				add(r)
			}
		}
		for _, id := range ids {
			add(id)
		}
		sums = append(sums, sum)
		return sc.Score([][]int32{{int32(len(sums) - 1)}})[0]
	})
}

// flatRows is an id space of leaves: id i is the leaf whose row is the i-th.
type flatRows [][]float64

// Node implements treeconv.Nodes.
func (f *flatRows) Node(id int32) (row []float64, left, right int32) { return (*f)[id], -1, -1 }

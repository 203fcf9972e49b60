package core

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neo/internal/engine"
	"neo/internal/fastpath"
	"neo/internal/feature"
	"neo/internal/nn"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/route"
	"neo/internal/search"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
)

// CostFunction selects what the value network minimises (Section 4 /
// Section 6.4.4 of the paper).
type CostFunction int

const (
	// WorkloadCost minimises total latency across the workload:
	// C(Pf) = L(Pf).
	WorkloadCost CostFunction = iota
	// RelativeCost minimises latency relative to a per-query baseline:
	// C(Pf) = L(Pf) / Base(q), penalising regressions on individual queries.
	RelativeCost
)

// String implements fmt.Stringer.
func (c CostFunction) String() string {
	if c == RelativeCost {
		return "relative"
	}
	return "workload"
}

// Config holds Neo's hyperparameters.
type Config struct {
	// ValueNet configures the value-network architecture.
	ValueNet valuenet.Config
	// SearchExpansions is the node-expansion budget of the plan search
	// (the analogue of the paper's 250 ms cutoff).
	SearchExpansions int
	// TrainEpochs is the number of passes over the training samples per
	// retraining round.
	TrainEpochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// MaxTrainSamples caps the number of training samples used per
	// retraining round (a uniform subsample is taken when the experience
	// grows beyond it). Zero means no cap.
	MaxTrainSamples int
	// Cost selects the optimisation objective.
	Cost CostFunction
	// Seed seeds plan-search tie-breaking and minibatch shuffling.
	Seed int64
	// Routing selects how queries are dispatched between the statistics-free
	// greedy fast path (internal/fastpath) and the full DNN-guided best-first
	// search: route.Full (the zero value — every query takes the full
	// search, the historical behaviour), route.Fastpath (forced greedy) or
	// route.Auto (per-class heuristic bootstrap, demoted online by
	// observed-latency regret; see ObserveLatency).
	Routing route.Mode
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		ValueNet:         valuenet.DefaultConfig(),
		SearchExpansions: 256,
		TrainEpochs:      10,
		BatchSize:        16,
		MaxTrainSamples:  3000,
		Cost:             WorkloadCost,
		Seed:             1,
	}
}

// Neo is the learned optimizer: it featurizes queries, maintains experience,
// trains the value network, and searches for plans with it.
//
// Concurrency: plan search (Optimize, OptimizeCached, OptimizeGreedy, Scorer)
// scores against an immutable snapshot of the value network and is safe to
// call from any number of goroutines, including while a Retrain round trains
// the live network on another goroutine or a Restore replaces the learned
// state. Calls that mutate the experience or
// draw from the training rng (Bootstrap, Explore, RunEpisode) must not
// overlap each other.
type Neo struct {
	Engine     *engine.Engine
	Featurizer *feature.Featurizer
	// Net is the live network the training loop mutates and Restore replaces
	// (the pointer, never the network behind it). Searches never read it —
	// they score through the published snapshot — so reading Net from outside
	// is safe only while no Retrain or Restore is in flight.
	Net        *valuenet.Network // guarded by trainMu
	Experience *Experience
	Config     Config

	// rngMu guards rng, which drives episode shuffling and minibatch
	// shuffling. One shared stream, drawn in a fixed order, keeps training
	// reproducible for a fixed seed. The stream is fed by rngSrc, a counting
	// source: (seed, draw count) fully describe its state, which is what
	// State captures and Restore replays.
	rngMu   sync.Mutex
	rng     *rand.Rand      // guarded by rngMu
	rngSrc  *countingSource // guarded by rngMu
	rngSeed int64           // guarded by rngMu

	// mu guards the cheap mutable state shared between concurrent planners
	// and the training loop: per-query baselines (RelativeCost and
	// normalised reporting) and training-time accounting.
	mu sync.Mutex
	// baseline holds per-query baseline latencies (used by RelativeCost and
	// by the normalised-latency metrics the figures report).
	baseline map[string]float64 // guarded by mu
	// trainTime accumulates wall-clock time spent training the network,
	// used by the Figure 11 training-time breakdown.
	trainTime time.Duration // guarded by mu

	// trainMu serializes everything that changes or copies the learned state
	// as a whole: Retrain rounds, Restore and State.
	trainMu sync.Mutex
	// snap is the read-only network snapshot all searches score with,
	// tagged with its version. Only publishLocked stores to it — at the end
	// of a Retrain round or a Restore — so in-flight searches finish against
	// the weights they started with while new searches pick up the new
	// network (double buffering). Version, weights and the one thing derived
	// from the weights — the plan cache — travel in one pointer, so a reader
	// can never observe new weights under an old version, or a plan searched
	// with other weights than the ones it is served under.
	snap atomic.Pointer[netSnapshot]

	// planStats are the plan-cache hit/miss counters shared by every
	// snapshot's cache, so /stats counters are monotonic across swaps.
	planStats planCounters

	// router dispatches each Optimize between the greedy fast path and the
	// full best-first search (Config.Routing) and accounts decisions,
	// planning latencies and execution regret per query class.
	router *route.Router
}

// netSnapshot pairs a frozen network with the version it was published as
// and with the one cache derived from exactly these weights, the plan cache,
// which lives and dies with the snapshot.
type netSnapshot struct {
	net     *valuenet.Snapshot
	version uint64
	plans   *planCache
}

// countingSource wraps a math/rand source and counts how many values have
// been drawn from it. Go's sources expose no state, but every draw — through
// any rand.Rand method — advances the source by exactly one step, so (seed,
// draws) identifies the state exactly: recreate the source from the seed and
// discard the same number of draws to resume the stream.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *countingSource) Int63() int64 { s.draws++; return s.src.Int63() }

// Uint64 implements rand.Source64.
func (s *countingSource) Uint64() uint64 { s.draws++; return s.src.Uint64() }

// Seed implements rand.Source.
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed); s.draws = 0 }

// skip advances the source by n draws.
func (s *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws = n
}

// New creates a Neo instance bound to a target engine and featurizer.
// Zero-valued hyperparameters are filled from DefaultConfig field by field;
// explicitly set fields are preserved. Config.MaxTrainSamples is exempt
// (zero meaningfully disables the cap), and a zero Config.Cost already is
// the default WorkloadCost.
func New(eng *engine.Engine, feat *feature.Featurizer, cfg Config) *Neo {
	def := DefaultConfig()
	if cfg.SearchExpansions == 0 {
		cfg.SearchExpansions = def.SearchExpansions
	}
	if cfg.TrainEpochs == 0 {
		cfg.TrainEpochs = def.TrainEpochs
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = def.BatchSize
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if len(cfg.ValueNet.QueryLayers) == 0 {
		cfg.ValueNet = def.ValueNet
	}
	net := valuenet.New(feat.QueryVectorSize(), feat.PlanVectorSize(), cfg.ValueNet)
	src := newCountingSource(cfg.Seed)
	n := &Neo{
		Engine:     eng,
		Featurizer: feat,
		Net:        net,
		Experience: NewExperience(),
		Config:     cfg,
		rng:        rand.New(src),
		rngSrc:     src,
		rngSeed:    cfg.Seed,
		baseline:   make(map[string]float64),
		router:     route.New(cfg.Routing, route.Policy{}),
	}
	n.publishLocked(0)
	return n
}

// SnapshotInfo reports the serving snapshot's memory footprint. Safe for
// concurrent use.
func (n *Neo) SnapshotInfo() valuenet.SnapshotInfo { return n.Snapshot().Info() }

// TrainingTime returns the cumulative wall-clock time spent training the
// value network.
func (n *Neo) TrainingTime() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trainTime
}

// Snapshot returns the read-only value-network snapshot searches currently
// score with. Safe for concurrent use.
func (n *Neo) Snapshot() *valuenet.Snapshot { return n.snap.Load().net }

// NetVersion returns the version of the serving snapshot: it increments
// whenever a retraining round publishes new weights, and Restore sets it
// explicitly. To learn which version a particular plan was searched with,
// use the one OptimizeCached returns alongside it.
func (n *Neo) NetVersion() uint64 { return n.snap.Load().version }

// publishLocked is the one place learned state changes hands: it freezes the
// live network's weights and stores them as the serving snapshot — weights,
// version and an empty plan cache (all caches share one planCounters, so the
// statistics survive swaps) in one atomic pointer. Nothing a reader can
// reach is ever mutated; state is only replaced here. Callers hold trainMu,
// which also serializes versions.
func (n *Neo) publishLocked(version uint64) {
	n.snap.Store(&netSnapshot{
		net:     n.Net.Snapshot(),
		version: version,
		plans:   &planCache{counters: &n.planStats, entries: make(map[string]*planEntry)},
	})
}

// State is the learned state of a Neo instance, handed over in one piece:
// State copies it out, Restore swaps it in, and a checkpoint is its
// serialized form (checkpoint.State embeds it).
type State struct {
	// NetVersion is the serving-snapshot version.
	NetVersion uint64
	// RNGSeed and RNGDraws describe the training RNG's exact stream position.
	RNGSeed  int64
	RNGDraws uint64
	// TrainTime is the cumulative wall-clock training time.
	TrainTime time.Duration
	// Net is the value network with its optimizer state. State returns a
	// private copy; Restore takes ownership of the one it is given.
	Net *valuenet.Network
	// Experience is the executed-plan pool.
	Experience []Entry
	// Baselines are the per-query baseline latencies.
	Baselines map[string]float64
}

// State returns a consistent copy of the learned state. It waits for a
// retraining round in flight; planning keeps running. Calls that mutate the
// experience or draw from the training rng outside a retraining round
// (Bootstrap, RunEpisode) must not overlap it.
func (n *Neo) State() State {
	n.trainMu.Lock()
	defer n.trainMu.Unlock()
	st := State{NetVersion: n.NetVersion(), Net: n.Net.CloneTrainable(), Experience: n.Experience.Entries()}
	n.rngMu.Lock()
	st.RNGSeed, st.RNGDraws = n.rngSeed, n.rngSrc.draws
	n.rngMu.Unlock()
	n.mu.Lock()
	st.TrainTime, st.Baselines = n.trainTime, maps.Clone(n.baseline)
	n.mu.Unlock()
	return st
}

// Restore replaces the learned state with st and publishes st.Net as the
// serving snapshot under st.NetVersion, exactly as a Retrain round publishes
// its result: searches in flight finish on the snapshot they pinned, later
// ones see the new weights and an empty plan cache. st.Net must have been
// built for this instance's featurizer dimensions and Config.ValueNet; the
// training RNG resumes at (RNGSeed, RNGDraws), so resumed training shuffles
// minibatches identically to an uninterrupted run. Safe to call while
// planning is in flight.
func (n *Neo) Restore(st State) {
	src := newCountingSource(st.RNGSeed)
	src.skip(st.RNGDraws)
	baseline := make(map[string]float64, len(st.Baselines))
	maps.Copy(baseline, st.Baselines)

	n.trainMu.Lock()
	defer n.trainMu.Unlock()
	n.Net = st.Net
	n.Experience.Restore(st.Experience)
	n.rngMu.Lock()
	n.rng, n.rngSrc, n.rngSeed = rand.New(src), src, st.RNGSeed
	n.rngMu.Unlock()
	n.mu.Lock()
	n.baseline, n.trainTime = baseline, st.TrainTime
	n.mu.Unlock()
	n.publishLocked(st.NetVersion)
}

// SetBaseline records the per-query baseline latencies used by the
// RelativeCost objective and by normalised reporting (typically the latency
// of the expert's plan on the target engine). Safe for concurrent use.
func (n *Neo) SetBaseline(id string, latency float64) {
	if latency > 0 {
		n.mu.Lock()
		n.baseline[id] = latency
		n.mu.Unlock()
	}
}

// Baseline returns the baseline latency for a query (and whether one is set).
// Safe for concurrent use.
func (n *Neo) Baseline(id string) (float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.baseline[id]
	return v, ok
}

// cost converts an experience entry's latency into the configured cost.
func (n *Neo) cost(e Entry) float64 {
	if n.Config.Cost == RelativeCost {
		if base, ok := n.Baseline(e.Query.ID); ok && base > 0 {
			return e.Latency / base
		}
	}
	return e.Latency
}

// Bootstrap collects demonstration experience from an expert optimizer
// (Section 2, "Expertise Collection"): each training query's expert plan is
// executed on the target engine, the plan/latency pair is added to the
// experience, and the latency is recorded as the query's baseline. It then
// trains the value network on the collected demonstrations.
func (n *Neo) Bootstrap(queries []*query.Query, expert func(*query.Query) (*plan.Plan, error)) error {
	for _, q := range queries {
		p, err := expert(q)
		if err != nil {
			return fmt.Errorf("core: expert failed on query %s: %w", q.ID, err)
		}
		lat, _, err := n.Engine.Execute(p)
		if err != nil {
			return fmt.Errorf("core: executing expert plan for %s: %w", q.ID, err)
		}
		n.Experience.Add(q, p, lat)
		n.SetBaseline(q.ID, lat)
	}
	n.Retrain()
	return nil
}

// Explore executes additional (typically randomly generated) plans for the
// given queries and adds them to the experience, then retrains. Executing a
// handful of alternative plans per query alongside the expert demonstration
// gives the value network within-query contrast — it sees both good and bad
// plans for the same query — which substantially improves early plan ranking
// when the training workload is small. (The paper collects only the expert
// plan per query; this is an optional enrichment, enabled by default in the
// experiment harness, cmd/neo-experiments.)
func (n *Neo) Explore(queries []*query.Query, planner func(*query.Query) *plan.Plan, perQuery int) error {
	if perQuery <= 0 {
		return nil
	}
	for _, q := range queries {
		for i := 0; i < perQuery; i++ {
			p := planner(q)
			if p == nil || !p.IsComplete() {
				continue
			}
			lat, _, err := n.Engine.Execute(p)
			if err != nil {
				return fmt.Errorf("core: exploring plan for %s: %w", q.ID, err)
			}
			n.Experience.Add(q, p, lat)
		}
	}
	n.Retrain()
	return nil
}

// trainingSamplesLocked converts the experience into value-network training
// samples: for every stored complete plan, the plan itself plus the partial
// plans along its bottom-up construction, each labelled with the minimum
// cost of any experienced complete plan that contains it. Beyond
// MaxTrainSamples states it shuffles the (entry, state) pairs with n.rng —
// the draws depend only on the count, which numStates gives without building
// anything — and builds only the first MaxTrainSamples, in that order: the
// samples shuffling them all would keep. The caller holds rngMu.
func (n *Neo) trainingSamplesLocked() []valuenet.Sample {
	entries := n.Experience.Entries()
	type state struct{ entry, index int }
	var states []state
	for e, entry := range entries {
		for i := range numStates(entry.Plan) {
			states = append(states, state{e, i})
		}
	}
	if max := n.Config.MaxTrainSamples; max > 0 && len(states) > max {
		n.rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
		states = states[:max]
	}
	// Every sample of one query shares one encoding slice: that identity is
	// what valuenet deduplicates the query tower on. The kept states of one
	// entry share their subtrees: one encoder, made at the entry's first kept
	// state, encodes each node of its plan once.
	encodings := make(map[string][]float64)
	type built struct {
		states []*plan.Plan
		enc    *feature.PlanEncoder
	}
	entryStates := make(map[int]built)
	samples := make([]valuenet.Sample, 0, len(states))
	for _, st := range states {
		entry := entries[st.entry]
		b, ok := entryStates[st.entry]
		if !ok {
			b = built{constructionStates(entry.Plan), n.Featurizer.NewPlanEncoder(entry.Query)}
			entryStates[st.entry] = b
		}
		qEnc, ok := encodings[entry.Query.ID]
		if !ok {
			qEnc = n.Featurizer.EncodeQuery(entry.Query)
			encodings[entry.Query.ID] = qEnc
		}
		partial := b.states[st.index]
		target, ok := n.Experience.MinCostContaining(partial, n.cost)
		if !ok {
			target = n.cost(entry)
		}
		samples = append(samples, valuenet.Sample{
			Query:  qEnc,
			Plan:   b.enc.Encode(partial),
			Target: target,
		})
	}
	return samples
}

// numStates is len(constructionStates(p)) without building them: a complete
// plan over k relations has k leaves and k−1 joins, so k+1 states; a partial
// plan is its own only state.
func numStates(p *plan.Plan) int {
	if !p.IsComplete() {
		return 1
	}
	return (p.Roots[0].NumNodes() + 3) / 2
}

// constructionStates returns the sequence of partial plans that build up to
// the complete plan p: the initial all-unspecified state, the all-leaves
// state, every intermediate forest produced by applying p's joins bottom-up,
// and finally p itself.
func constructionStates(p *plan.Plan) []*plan.Plan {
	if !p.IsComplete() {
		return []*plan.Plan{p}
	}
	var states []*plan.Plan
	states = append(states, plan.Initial(p.Query))

	// Order p's joins by subtree size ascending so children come before
	// parents, keeping the walk order for equal sizes (disjoint sibling
	// joins) so the construction sequence — and with it the training
	// targets — stays deterministic.
	var joins, leaves []*plan.Node
	p.Roots[0].Walk(func(node *plan.Node) {
		if node.IsLeaf() {
			leaves = append(leaves, node)
		} else {
			joins = append(joins, node)
		}
	})
	sort.SliceStable(joins, func(a, b int) bool {
		return joins[a].NumNodes() < joins[b].NumNodes()
	})

	// Every state shares p's nodes (they are immutable). Start from the
	// forest of specified leaves.
	current := map[string]*plan.Node{}
	for _, l := range leaves {
		current[l.Table] = l
	}
	// forest lists the distinct roots by walking the leaves in plan order
	// (never by ranging over the map): map iteration order is random, and a
	// random root order would randomise gradient-accumulation order during
	// training, making identically-seeded runs irreproducible.
	forest := func() []*plan.Node {
		out := make([]*plan.Node, 0, len(current))
		seen := map[*plan.Node]bool{}
		for _, l := range leaves {
			node := current[l.Table]
			if !seen[node] {
				seen[node] = true
				out = append(out, node)
			}
		}
		return out
	}
	states = append(states, &plan.Plan{Query: p.Query, Roots: forest()})

	for _, j := range joins {
		// j's inputs are roots of the current forest (smaller joins came
		// first), so j itself is the joined root.
		for _, t := range j.Tables() {
			current[t] = j
		}
		states = append(states, &plan.Plan{Query: p.Query, Roots: forest()})
	}
	return states
}

// Retrain rebuilds the training set from the experience, (re)trains the
// live value network — one shared batched forward/backward pass per
// minibatch, sharded over GOMAXPROCS data-parallel gradient workers
// (bit-identical for every worker count) — and atomically swaps the
// freshly trained weights in as the serving snapshot. It returns the final
// training loss. Retraining rounds are serialized; plan searches may run
// concurrently — they keep scoring with the previous snapshot until the
// swap.
func (n *Neo) Retrain() float64 {
	n.trainMu.Lock()
	defer n.trainMu.Unlock()
	n.rngMu.Lock()
	samples := n.trainingSamplesLocked()
	if len(samples) == 0 {
		n.rngMu.Unlock()
		return 0
	}
	start := time.Now() //neo:lint-ok walltime training-time accounting for the retrain budget; never feeds the model
	loss := n.Net.Train(samples, n.Config.TrainEpochs, n.Config.BatchSize, n.rng)
	n.rngMu.Unlock()
	elapsed := time.Since(start) //neo:lint-ok walltime training-time accounting for the retrain budget; never feeds the model
	n.mu.Lock()
	n.trainTime += elapsed
	n.mu.Unlock()
	n.publishLocked(n.NetVersion() + 1)
	return loss
}

// netScorer scores plans of one query with the frozen value network it was
// created on, for one search. Both halves of it remember every subtree the
// search has shown them: the plan encoder returns one feature tree per
// distinct subtree, and the incremental scorer — which ran the query tower
// when it was created — convolves each such tree once. A child plan therefore
// costs the encoding and the convolution of its one new node the first time
// that node is seen and nothing afterwards, plus one head-MLP row per plan.
// Both memos die with the scorer.
type netScorer struct {
	net *valuenet.Scorer
	enc *feature.PlanEncoder

	// trees holds the roots of every forest of one ScoreBatch call and
	// forests the per-plan windows into it; both are reused across calls.
	trees   []*treeconv.Tree
	forests [][]*treeconv.Tree
}

// ScoreBatch implements search.BatchScorer.
func (s *netScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	roots := 0
	for _, p := range ps {
		roots += len(p.Roots)
	}
	// Sized up front: the windows alias trees, so it must not move.
	s.trees = slices.Grow(s.trees[:0], roots)
	s.forests = s.forests[:0]
	for _, p := range ps {
		start := len(s.trees)
		s.trees = s.enc.AppendForest(s.trees, p)
		s.forests = append(s.forests, s.trees[start:len(s.trees):len(s.trees)])
	}
	return s.net.Score(s.forests)
}

// Scorer returns the batched value-network scorer for the given query. The
// scorer is pinned to the network snapshot current at creation time, so a
// search runs against one consistent set of weights even if a background
// retraining round swaps the snapshot mid-search. Each returned scorer
// carries its own scratch state, so concurrent searches use separate Scorer
// instances (see pkg/neo's PlanAll).
func (n *Neo) Scorer(q *query.Query) search.BatchScorer { return n.scorerOn(n.snap.Load(), q) }

func (n *Neo) scorerOn(ns *netSnapshot, q *query.Query) search.BatchScorer {
	return &netScorer{net: ns.net.NewScorer(n.Featurizer.EncodeQuery(q)), enc: n.Featurizer.NewPlanEncoder(q)}
}

// Optimize plans q: the router (Config.Routing) dispatches the query either
// to the statistics-free greedy fast path — microsecond planning, no
// value-network inference — or to the full DNN-guided best-first search.
// Every call records its routing decision in the per-class counters (see
// RouteStats). For fast-path plans the returned Result carries the greedy
// cost model's score and the number of ordering steps as Expansions; no
// network is consulted until ObserveLatency scores the executed plan for
// regret. Optimize always plans afresh — episodes and the Figure 14
// error-injection experiments must re-plan; serving goes through
// OptimizeCached.
func (n *Neo) Optimize(q *query.Query) (*plan.Plan, *search.Result, error) {
	return n.optimizeOn(n.snap.Load(), q)
}

// OptimizeCached is Optimize through the serving snapshot's plan cache:
// structurally identical queries (equal Query.Signature, any ID) share one
// search per snapshot, concurrent misses on one structure wait for a single
// search instead of racing through identical ones, and the returned plan is
// bound to the caller's q. The snapshot pointer is loaded once and used for
// the lookup, the search, the store and the returned version, so version is
// by construction the one whose weights scored the plan, whatever swaps land
// meanwhile. Safe for concurrent use.
func (n *Neo) OptimizeCached(q *query.Query) (p *plan.Plan, res *search.Result, version uint64, err error) {
	ns := n.snap.Load()
	p, res, err = ns.plans.get(q, func() (*plan.Plan, *search.Result, error) { return n.optimizeOn(ns, q) })
	return p, res, ns.version, err
}

// PlanCacheStats reports the lifetime hit/miss counters and the serving
// snapshot's cache size and version. Safe for concurrent use.
func (n *Neo) PlanCacheStats() PlanCacheStats {
	ns := n.snap.Load()
	return PlanCacheStats{
		Hits:    n.planStats.hits.Load(),
		Misses:  n.planStats.misses.Load(),
		Size:    ns.plans.size(),
		Version: ns.version,
	}
}

func (n *Neo) optimizeOn(ns *netSnapshot, q *query.Query) (*plan.Plan, *search.Result, error) {
	if dec := n.router.Decide(q); dec.Fastpath {
		fr, err := fastpath.Plan(q, n.Featurizer.Catalog)
		if err != nil {
			return nil, nil, err
		}
		n.router.RecordFastpathLatency(dec.Class, fr.Elapsed)
		res := &search.Result{
			Plan:       fr.Plan,
			Score:      fastpath.Cost(fr.Plan, n.Featurizer.Catalog),
			Expansions: fr.Steps,
			Elapsed:    fr.Elapsed,
		}
		return fr.Plan, res, nil
	}
	opts := search.Options{
		Catalog:       n.Featurizer.Catalog,
		MaxExpansions: n.Config.SearchExpansions,
	}
	res, err := search.BestFirst(q, n.scorerOn(ns, q), opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Plan, res, nil
}

// RouteStats snapshots the router's per-class decision counters, fast-path
// planning-latency percentiles and regret accounting. Safe for concurrent
// use.
func (n *Neo) RouteStats() route.StatsSnapshot { return n.router.Stats() }

// ObserveLatency feeds one executed query's measured latency into the
// router's regret accounting. For a class currently served by the fast
// path, the observation is compared against the value network's estimate of
// what the full best-first search would have achieved: the network predicts
// the best cost *reachable* from a partial plan, so its prediction for the
// query's initial state — one inference — stands in for running the search.
// Classes whose mean regret crosses the policy threshold are re-routed to
// the full search. A no-op (and inference-free) unless routing is Auto and
// the class is on the fast path, so callers can invoke it unconditionally
// on every execution.
func (n *Neo) ObserveLatency(q *query.Query, observedMS float64) {
	if observedMS <= 0 || !n.router.NeedsOutcome(q) {
		return
	}
	if n.Config.Cost == RelativeCost {
		// Under the relative objective the network predicts latency divided
		// by the per-query baseline; bring the observation into the same
		// units (skip the sample when no baseline is known yet).
		base, ok := n.Baseline(q.ID)
		if !ok || base <= 0 {
			return
		}
		observedMS /= base
	}
	// Predict (not PredictBatchNormalized): the estimate must be in the
	// original cost domain so the observed/estimated ratio is unit-free.
	initial := plan.Initial(q)
	estimate := n.Snapshot().Predict(n.Featurizer.EncodeQuery(q), n.Featurizer.EncodePlan(initial))
	n.router.RecordOutcome(route.Classify(q).Key(), observedMS, estimate)
}

// OptimizeGreedy builds a plan greedily (the "hurry-up"/Q-learning-style
// ablation of Section 4.2).
func (n *Neo) OptimizeGreedy(q *query.Query) (*plan.Plan, *search.Result, error) {
	opts := search.Options{Catalog: n.Featurizer.Catalog}
	res, err := search.Greedy(q, n.Scorer(q), opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Plan, res, nil
}

// EpisodeStats summarises one training episode.
type EpisodeStats struct {
	// Episode is the 1-based episode number.
	Episode int
	// TotalLatency is the summed latency of the plans chosen this episode.
	TotalLatency float64
	// NormalizedLatency is TotalLatency divided by the summed baseline
	// latency of the same queries (the paper's "normalized latency", where
	// 1.0 equals the baseline optimizer).
	NormalizedLatency float64
	// TrainLoss is the value-network loss after retraining.
	TrainLoss float64
	// QueryLatencies maps query ID to the latency of the plan Neo chose.
	QueryLatencies map[string]float64
}

// planExec is the outcome of planning and simulating one query of an
// episode or evaluation batch: the chosen plan and its deterministic
// (noise-free) simulated latency.
type planExec struct {
	plan *plan.Plan
	base float64
	err  error
}

// PlanningWorkers is the width of a pool of concurrent searches: GOMAXPROCS,
// or 1 while the featurizer injects cardinality error (Featurizer.Error, the
// Figure 14 protocol), whose perturbations are drawn from one shared stream
// in the order encodings ask for them — serial planning keeps that
// experiment reproducible.
func (n *Neo) PlanningWorkers() int {
	if n.Featurizer.Error != nil {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// planAndSimulate fans plan search plus deterministic plan simulation out
// over PlanningWorkers workers. The engine's run-to-run noise is deliberately
// NOT applied here: the caller commits the returned base latencies in input
// order, so the engine's noise stream is drawn in exactly the order the
// serial loop would draw it, and results are bit-identical to serial
// execution for a fixed seed no matter how many workers raced.
func (n *Neo) planAndSimulate(queries []*query.Query) []planExec {
	out := make([]planExec, len(queries))
	nn.Parallel(n.PlanningWorkers(), len(queries), func(i int) { out[i] = n.planAndSimulateOne(queries[i]) })
	return out
}

func (n *Neo) planAndSimulateOne(q *query.Query) planExec {
	p, _, err := n.Optimize(q)
	if err != nil {
		return planExec{err: err}
	}
	base, _, err := n.Engine.Simulate(p)
	if err != nil {
		return planExec{err: err}
	}
	return planExec{plan: p, base: base}
}

// RunEpisode performs one full training episode (Section 6.3.1): for every
// training query, search for a plan with the current value network, execute
// it on the engine, add the plan/latency pair to the experience, and finally
// retrain the network. Plan search and plan simulation fan out over
// PlanningWorkers workers, while the episode's shuffle, the
// engine's noise draws, the experience appends and the final retraining all
// happen in deterministic order — so the returned EpisodeStats (and all
// downstream training state) are bit-identical for a fixed seed, whatever
// the pool size.
func (n *Neo) RunEpisode(episode int, queries []*query.Query) (*EpisodeStats, error) {
	stats := &EpisodeStats{Episode: episode, QueryLatencies: make(map[string]float64)}
	shuffled := append([]*query.Query(nil), queries...)
	n.rngMu.Lock()
	n.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	n.rngMu.Unlock()

	execs := n.planAndSimulate(shuffled)
	baseTotal := 0.0
	for i, q := range shuffled {
		if err := execs[i].err; err != nil {
			return nil, fmt.Errorf("core: episode %d query %s: %w", episode, q.ID, err)
		}
		lat := n.Engine.Commit(execs[i].base)
		n.Experience.Add(q, execs[i].plan, lat)
		n.ObserveLatency(q, lat)
		stats.TotalLatency += lat
		stats.QueryLatencies[q.ID] = lat
		if base, ok := n.Baseline(q.ID); ok {
			baseTotal += base
		} else {
			baseTotal += lat
		}
	}
	if baseTotal > 0 {
		stats.NormalizedLatency = stats.TotalLatency / baseTotal
	}
	stats.TrainLoss = n.Retrain()
	return stats, nil
}

// Evaluate optimizes and executes each query without adding the results to
// the experience (held-out evaluation). It returns the total latency and the
// per-query latencies. Like RunEpisode, searches and plan simulations fan out
// over PlanningWorkers workers while the engine's noise draws commit in input order, so
// per-query plans and latencies are identical for a fixed seed.
func (n *Neo) Evaluate(queries []*query.Query) (float64, map[string]float64, error) {
	execs := n.planAndSimulate(queries)
	perQuery := make(map[string]float64, len(queries))
	total := 0.0
	for i, q := range queries {
		if execs[i].err != nil {
			return 0, nil, execs[i].err
		}
		lat := n.Engine.Commit(execs[i].base)
		perQuery[q.ID] = lat
		total += lat
	}
	return total, perQuery, nil
}

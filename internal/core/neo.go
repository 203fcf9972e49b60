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
	"neo/internal/expert"
	"neo/internal/fastpath"
	"neo/internal/feature"
	"neo/internal/nn"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/route"
	"neo/internal/search"
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
	// Cost selects the optimisation objective.
	Cost CostFunction
	// Seed seeds plan-search tie-breaking and minibatch shuffling.
	Seed int64
	// Routing selects how queries are dispatched between the statistics-free
	// greedy fast path (internal/fastpath) and the full DNN-guided best-first
	// search: route.Full (the zero value — every query takes the full
	// search, the historical behaviour) or route.Auto (per-class heuristic
	// bootstrap, demoted online by observed-latency regret; see
	// ObserveLatency).
	Routing route.Mode
}

// DefaultConfig returns the configuration the served system trains with.
// The paper figures (internal/experiments) run it too, overriding only the
// scale knobs ValueNet and SearchExpansions, the objective and the seed.
func DefaultConfig() Config {
	return Config{
		ValueNet:         valuenet.DefaultConfig(),
		SearchExpansions: 256,
		TrainEpochs:      10,
		Cost:             WorkloadCost,
		Seed:             1,
	}
}

// batchSize is the minibatch size of every retraining round.
const batchSize = 16

// maxTrainSamples caps the training samples of one retraining round: beyond
// it a uniform subsample of the experience's construction states is kept.
const maxTrainSamples = 3000

// Neo is the learned optimizer, the paper's Figure 1 loop as a pair: a
// Planner that searches with the published value-network snapshot and a
// Learner that executes plans, keeps the experience, retrains and publishes
// to that Planner. Neo adds no field or method; it lets one value reach each
// half's by promotion (n.Optimize, n.Retrain, n.Experience).
//
// Concurrency: each half guards its own state. Planner methods load the
// snapshot through one atomic pointer and take no lock but the baselines'
// mutex, so they are safe from any number of goroutines, also while the
// Learner retrains or restores. The Learner's trainMu serializes rounds,
// State, Restore and every training-RNG draw; calls that mutate the
// experience (Bootstrap, Explore, RunEpisode) must not overlap each other.
type Neo struct {
	*Planner
	*Learner
}

// Planner serves plans from the value-network snapshot last published to
// it, which it needs before it serves anything. It executes nothing and
// reaches no learned state but that snapshot, so a node that only serves can
// run a Planner alone.
type Planner struct {
	Featurizer *feature.Featurizer
	Config     Config

	// snap is the read-only network snapshot all searches score with,
	// tagged with its version. Only Publish stores to it, so in-flight
	// searches finish against the weights they started with while new
	// searches pick up the new network (double buffering). Version, weights
	// and the one thing derived from the weights — the plan cache — travel in
	// one pointer, so a reader can never observe new weights under an old
	// version, or a plan searched with other weights than the ones it is
	// served under.
	snap atomic.Pointer[netSnapshot]

	// planStats are the plan-cache hit/miss counters shared by every
	// snapshot's cache, so /stats counters are monotonic across swaps.
	planStats planCounters

	// router dispatches each Optimize between the greedy fast path and the
	// full best-first search (Config.Routing) and accounts decisions,
	// planning latencies and execution regret per query class.
	router *route.Router

	mu sync.Mutex
	// baseline holds per-query baseline latencies (used by RelativeCost and
	// by the normalised-latency metrics the figures report).
	baseline map[string]float64 // guarded by mu
}

// Learner trains: it executes plans on the engine, keeps the experience,
// retrains the live network and publishes each round's weights to its
// Planner, whose featurizer and configuration it uses.
type Learner struct {
	Engine *engine.Engine
	// Net is the live network the training loop mutates and Restore replaces
	// (the pointer, never the network behind it). Searches never read it —
	// they score through the published snapshot — so reading Net from outside
	// is safe only while no Retrain or Restore is in flight.
	Net        *valuenet.Network // guarded by trainMu
	Experience *Experience

	// rng drives episode shuffling and minibatch shuffling. One shared
	// stream, drawn in a fixed order, keeps training reproducible for a
	// fixed seed. The stream is fed by rngSrc, a counting source: its
	// (seed, draws) position is what State reads and Restore sets.
	rng    *rand.Rand      // guarded by trainMu
	rngSrc *countingSource // guarded by trainMu
	// trainTime accumulates wall-clock time spent training the network,
	// used by the Figure 11 training-time breakdown.
	trainTime time.Duration // guarded by trainMu

	// trainMu serializes everything that changes or copies the learned state
	// as a whole: Retrain rounds, Restore and State, and every draw from the
	// training rng.
	trainMu sync.Mutex

	planner *Planner
}

// netSnapshot pairs a frozen network with the version it was published as
// and with the one cache derived from exactly these weights, the plan cache,
// which lives and dies with the snapshot.
type netSnapshot struct {
	net     *valuenet.Snapshot
	version uint64
	plans   *planCache
}

// countingSource is a math/rand stream held as a position: the seed and the
// number of values drawn so far. Go's sources expose no state, but every
// draw — through any rand.Rand method — advances the source by exactly one
// step, so (seed, draws) identifies the state exactly. Setting a position
// costs nothing: the source behind it is built from the seed at the first
// draw and fast-forwarded there, so only a process that draws pays for the
// stream's history, once.
type countingSource struct {
	seed  int64
	draws uint64
	src   rand.Source64 // nil until the first draw
}

// source returns the source at the current position, building it first.
func (s *countingSource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for range s.draws {
			s.src.Uint64()
		}
	}
	return s.src
}

// Int63 implements rand.Source.
func (s *countingSource) Int63() int64 { v := s.source().Int63(); s.draws++; return v }

// Uint64 implements rand.Source64.
func (s *countingSource) Uint64() uint64 { v := s.source().Uint64(); s.draws++; return v }

// Seed implements rand.Source.
func (s *countingSource) Seed(seed int64) { *s = countingSource{seed: seed} }

// New creates a Neo instance bound to a target engine and featurizer: a
// NewPlanner and a NewLearner over it.
func New(eng *engine.Engine, feat *feature.Featurizer, cfg Config) *Neo {
	p := NewPlanner(feat, cfg)
	return &Neo{p, NewLearner(eng, p)}
}

// NewPlanner creates a Planner with no snapshot to serve yet. Zero
// SearchExpansions, TrainEpochs and Seed are filled from DefaultConfig; the
// other fields are kept as given. ValueNet is taken whole or not at all: a
// config with no QueryLayers is replaced by DefaultConfig's entire network
// config, its other fields (LearningRate, Seed, …) included. A zero
// Config.Cost already is the default WorkloadCost.
func NewPlanner(feat *feature.Featurizer, cfg Config) *Planner {
	def := DefaultConfig()
	if cfg.SearchExpansions == 0 {
		cfg.SearchExpansions = def.SearchExpansions
	}
	if cfg.TrainEpochs == 0 {
		cfg.TrainEpochs = def.TrainEpochs
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if len(cfg.ValueNet.QueryLayers) == 0 {
		cfg.ValueNet = def.ValueNet
	}
	return &Planner{Featurizer: feat, Config: cfg, baseline: make(map[string]float64), router: route.New(cfg.Routing, route.Policy{})}
}

// NewLearner creates a Learner with a fresh network of p's configuration
// and publishes that network to p as version 0.
func NewLearner(eng *engine.Engine, p *Planner) *Learner {
	src := &countingSource{seed: p.Config.Seed}
	net := valuenet.New(p.Featurizer.QueryVectorSize(), p.Featurizer.PlanVectorSize(), p.Config.ValueNet)
	p.Publish(net.Snapshot(), 0)
	return &Learner{Engine: eng, Net: net, Experience: NewExperience(), rng: rand.New(src), rngSrc: src, planner: p}
}

// SnapshotInfo reports the serving snapshot's memory footprint. Safe for
// concurrent use.
func (p *Planner) SnapshotInfo() valuenet.SnapshotInfo { return p.Snapshot().Info() }

// TrainingTime returns the cumulative wall-clock time spent training the
// value network. It waits for a retraining round in flight.
func (l *Learner) TrainingTime() time.Duration {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	return l.trainTime
}

// Snapshot returns the read-only value-network snapshot searches currently
// score with. Safe for concurrent use.
func (p *Planner) Snapshot() *valuenet.Snapshot { return p.snap.Load().net }

// NetVersion returns the version of the serving snapshot: it increments
// whenever a retraining round publishes new weights, and Restore sets it
// explicitly. To learn which version a particular plan was searched with,
// use the one OptimizeCached returns alongside it.
func (p *Planner) NetVersion() uint64 { return p.snap.Load().version }

// Publish is the one place learned state reaches the serving side: it makes
// snap the serving snapshot under version, with an empty plan cache (all
// caches share one planCounters, so the statistics survive swaps), in one
// atomic pointer. Nothing a reader can reach is ever mutated; state is only
// replaced here. A Learner publishes under its trainMu, which orders its
// versions. Safe for concurrent use with every serving method.
func (p *Planner) Publish(snap *valuenet.Snapshot, version uint64) {
	plans := &planCache{counters: &p.planStats, entries: make(map[string]*CachedPlan)}
	p.snap.Store(&netSnapshot{net: snap, version: version, plans: plans})
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

// State returns a consistent copy of the learned state, the Planner's
// serving version and baselines included. It waits for a retraining round
// in flight; planning keeps running. Calls that mutate the experience
// outside a retraining round (Bootstrap, RunEpisode) must not overlap it.
func (l *Learner) State() State {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	return State{NetVersion: l.planner.NetVersion(), RNGSeed: l.rngSrc.seed, RNGDraws: l.rngSrc.draws,
		TrainTime: l.trainTime, Net: l.Net.CloneTrainable(), Experience: l.Experience.Entries(),
		Baselines: l.planner.baselines()}
}

// Restore replaces the learned state with st, sets the Planner's baselines
// and publishes st.Net to it under st.NetVersion, exactly as a Retrain round
// publishes its result: searches in flight finish on the snapshot they
// pinned, later ones see the new weights and an empty plan cache. st.Net
// must have been built for this instance's featurizer dimensions and
// Config.ValueNet; the training RNG resumes at (RNGSeed, RNGDraws), so
// resumed training shuffles minibatches identically to an uninterrupted run.
// Restore only sets that position; the next draw, if any, rebuilds the
// stream up to it. Safe to call while planning is in flight.
func (l *Learner) Restore(st State) {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	l.Net = st.Net
	l.Experience.Restore(st.Experience)
	l.rngSrc = &countingSource{seed: st.RNGSeed, draws: st.RNGDraws}
	l.rng = rand.New(l.rngSrc)
	l.trainTime = st.TrainTime
	l.planner.setBaselines(st.Baselines)
	l.planner.Publish(l.Net.Snapshot(), st.NetVersion)
}

// SetBaseline records the per-query baseline latencies used by the
// RelativeCost objective and by normalised reporting (typically the latency
// of the expert's plan on the target engine). Safe for concurrent use.
func (p *Planner) SetBaseline(id string, latency float64) {
	if latency > 0 {
		p.mu.Lock()
		p.baseline[id] = latency
		p.mu.Unlock()
	}
}

// Baseline returns the baseline latency for a query (and whether one is set).
// Safe for concurrent use.
func (p *Planner) Baseline(id string) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.baseline[id]
	return v, ok
}

// baselines returns a copy of every baseline, for State.
func (p *Planner) baselines() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.baseline)
}

// setBaselines replaces every baseline with a copy of m, for Restore.
func (p *Planner) setBaselines(m map[string]float64) {
	fresh := make(map[string]float64, len(m))
	maps.Copy(fresh, m)
	p.mu.Lock()
	p.baseline = fresh
	p.mu.Unlock()
}

// cost converts an experience entry's latency into the configured cost.
func (l *Learner) cost(e Entry) float64 {
	if l.planner.Config.Cost == RelativeCost {
		if base, ok := l.planner.Baseline(e.Query.ID); ok && base > 0 {
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
func (l *Learner) Bootstrap(queries []*query.Query, expert func(*query.Query) (*plan.Plan, error)) error {
	for _, q := range queries {
		p, err := expert(q)
		if err != nil {
			return fmt.Errorf("core: expert failed on query %s: %w", q.ID, err)
		}
		lat, _, err := l.Engine.Execute(p)
		if err != nil {
			return fmt.Errorf("core: executing expert plan for %s: %w", q.ID, err)
		}
		l.Experience.Add(q, p, lat)
		l.planner.SetBaseline(q.ID, lat)
	}
	l.Retrain()
	return nil
}

// BootstrapFromExpert is the bootstrap protocol of the served system
// (pkg/neo's System.Bootstrap) and of the paper figures
// (internal/experiments): Bootstrap on the expert's plans for queries, then
// Explore two plans per query from a random planner seeded Config.Seed+101.
// Each of the two rounds retrains.
func (l *Learner) BootstrapFromExpert(queries []*query.Query, pg *expert.Optimizer) error {
	if err := l.Bootstrap(queries, func(q *query.Query) (*plan.Plan, error) {
		p, _, err := pg.Optimize(q)
		return p, err
	}); err != nil {
		return err
	}
	rp := expert.NewRandomPlanner(l.planner.Featurizer.Catalog, l.planner.Config.Seed+101)
	return l.Explore(queries, rp.Plan, 2)
}

// Explore executes additional (typically randomly generated) plans for the
// given queries and adds them to the experience, then retrains. Executing a
// handful of alternative plans per query alongside the expert demonstration
// gives the value network within-query contrast — it sees both good and bad
// plans for the same query — which substantially improves early plan ranking
// when the training workload is small. (The paper collects only the expert
// plan per query; this is an enrichment BootstrapFromExpert always makes.)
func (l *Learner) Explore(queries []*query.Query, planner func(*query.Query) *plan.Plan, perQuery int) error {
	if perQuery <= 0 {
		return nil
	}
	for _, q := range queries {
		for i := 0; i < perQuery; i++ {
			p := planner(q)
			if p == nil || !p.IsComplete() {
				continue
			}
			lat, _, err := l.Engine.Execute(p)
			if err != nil {
				return fmt.Errorf("core: exploring plan for %s: %w", q.ID, err)
			}
			l.Experience.Add(q, p, lat)
		}
	}
	l.Retrain()
	return nil
}

// trainingSamplesLocked converts a snapshot of the experience into
// value-network training samples: for every stored complete plan, the plan
// itself plus the partial plans along its bottom-up construction, each
// labelled with the minimum cost of any complete plan of that snapshot that
// contains it. Beyond keep states it shuffles the (entry, state) pairs with
// l.rng — the draws depend only on the count, which numStates gives without
// building anything — and builds only the first keep, in that order: the
// samples shuffling them all would keep. The caller holds trainMu.
func (l *Learner) trainingSamplesLocked(keep int) []valuenet.Sample {
	entries := l.Experience.Entries()
	type state struct{ entry, index int }
	var states []state
	for e, entry := range entries {
		for i := range numStates(entry.Plan) {
			states = append(states, state{e, i})
		}
	}
	if len(states) > keep {
		l.rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
		states = states[:keep]
	}
	targets := newTargets(entries, l.cost)
	// Every sample of one query shares one encoding slice: that identity is
	// what valuenet deduplicates the query tower on. The kept states of one
	// entry share their subtrees: one node table and one encoder over it,
	// made at the entry's first kept state, encode each node of its plan
	// once and are the id space the entry's samples name their roots in.
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
			nodes := plan.NewNodes()
			b = built{constructionStates(entry.Plan, nodes), l.planner.Featurizer.NewPlanEncoder(entry.Query, nodes)}
			entryStates[st.entry] = b
		}
		qEnc, ok := encodings[entry.Query.ID]
		if !ok {
			qEnc = l.planner.Featurizer.EncodeQuery(entry.Query)
			encodings[entry.Query.ID] = qEnc
		}
		partial := b.states[st.index]
		target, ok := targets.of(partial)
		if !ok {
			target = l.cost(entry)
		}
		samples = append(samples, valuenet.Sample{
			Query:  qEnc,
			Nodes:  b.enc,
			Roots:  b.enc.AppendIDs(nil, partial),
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
// the complete plan p, drawn from nodes: the initial all-unspecified state,
// the all-leaves state, every intermediate forest produced by applying p's
// joins bottom-up, and finally p's equal in nodes. A partial plan is its own
// only state.
func constructionStates(p *plan.Plan, nodes *plan.Nodes) []*plan.Plan {
	if !p.IsComplete() {
		return []*plan.Plan{p}
	}
	var states []*plan.Plan
	states = append(states, plan.Initial(p.Query, nodes))

	// Order p's joins by subtree size ascending so children come before
	// parents, keeping the walk order for equal sizes (disjoint sibling
	// joins) so the construction sequence — and with it the training
	// targets — stays deterministic.
	var joins, leaves []*plan.Node
	nodes.Intern(p.Roots[0]).Walk(func(node *plan.Node) {
		if node.IsLeaf() {
			leaves = append(leaves, node)
		} else {
			joins = append(joins, node)
		}
	})
	sort.SliceStable(joins, func(a, b int) bool {
		return joins[a].NumNodes() < joins[b].NumNodes()
	})

	// Every state shares the table's nodes of p (they are immutable). Start
	// from the forest of specified leaves.
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
func (l *Learner) Retrain() float64 { return l.retrain(maxTrainSamples) }

// retrain is Retrain keeping at most keep training samples.
func (l *Learner) retrain(keep int) float64 {
	l.trainMu.Lock()
	defer l.trainMu.Unlock()
	samples := l.trainingSamplesLocked(keep)
	if len(samples) == 0 {
		return 0
	}
	start := time.Now() //neo:lint-ok walltime training-time accounting for the retrain budget; never feeds the model
	loss := l.Net.Train(samples, l.planner.Config.TrainEpochs, batchSize, l.rng)
	elapsed := time.Since(start) //neo:lint-ok walltime training-time accounting for the retrain budget; never feeds the model
	l.trainTime += elapsed
	l.planner.Publish(l.Net.Snapshot(), l.planner.NetVersion()+1)
	return loss
}

// netScorer scores plans of one query with the frozen value network it was
// created on, for one search. It owns the plan-node table the search draws
// its states from (search.NodeScorer), and both halves of it remember every
// subtree the search has shown them in slices indexed by the subtree's id
// there: the plan encoder encodes each distinct subtree once, and the
// incremental scorer — which ran the query tower when it was created —
// convolves each once. A child plan therefore costs the encoding and the
// convolution of its one new node the first time that node is seen and
// nothing afterwards, plus one head-MLP row per plan; a search shows it a
// child as its parent plus an edit (ScoreEdits), so a join child pools
// from its parent too. A plan built elsewhere (a cached result, an
// experience entry) is interned into the table first. The table and both
// memos die with the scorer.
type netScorer struct {
	nodes *plan.Nodes
	enc   *feature.PlanEncoder
	net   *valuenet.Scorer

	// ids holds the root ids of every forest of one ScoreBatch call (the
	// parent's, for ScoreEdits) and forests the per-plan windows into it;
	// edits is one ScoreEdits call's edits by id. All are reused across
	// calls.
	ids     []int32
	forests [][]int32
	edits   []valuenet.Edit
}

// Nodes implements search.NodeScorer.
func (s *netScorer) Nodes() *plan.Nodes { return s.nodes }

// ScoreEdits implements search.NodeScorer.
func (s *netScorer) ScoreEdits(p *plan.Plan, edits []plan.Edit) []float64 {
	s.ids = s.enc.AppendIDs(s.ids[:0], p)
	s.edits = s.edits[:0]
	for _, e := range edits {
		s.edits = append(s.edits, valuenet.Edit{I: e.I, J: e.J, Root: s.enc.ID(e.Node)})
	}
	return s.net.ScoreEdits(s.ids, s.edits)
}

// ScoreBatch implements search.BatchScorer.
func (s *netScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	roots := 0
	for _, p := range ps {
		roots += len(p.Roots)
	}
	// Sized up front: the windows alias ids, so it must not move.
	s.ids = slices.Grow(s.ids[:0], roots)
	s.forests = s.forests[:0]
	for _, p := range ps {
		start := len(s.ids)
		s.ids = s.enc.AppendIDs(s.ids, p)
		s.forests = append(s.forests, s.ids[start:len(s.ids):len(s.ids)])
	}
	return s.net.Score(s.forests)
}

// Scorer returns the batched value-network scorer for the given query. The
// scorer is pinned to the network snapshot current at creation time, so a
// search runs against one consistent set of weights even if a background
// retraining round swaps the snapshot mid-search. Each returned scorer
// carries its own scratch state, so concurrent searches use separate Scorer
// instances (see pkg/neo's PlanAll).
func (p *Planner) Scorer(q *query.Query) search.BatchScorer { return p.scorerOn(p.snap.Load(), q) }

func (p *Planner) scorerOn(ns *netSnapshot, q *query.Query) *netScorer {
	nodes := plan.NewNodes()
	enc := p.Featurizer.NewPlanEncoder(q, nodes)
	return &netScorer{nodes: nodes, enc: enc, net: ns.net.NewScorer(p.Featurizer.EncodeQuery(q), enc)}
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
func (p *Planner) Optimize(q *query.Query) (*plan.Plan, *search.Result, error) {
	return p.optimizeOn(p.snap.Load(), q)
}

// OptimizeCached is Optimize through the serving snapshot's plan cache:
// structurally identical queries (equal Query.Signature, any ID) share one
// search per snapshot, concurrent misses on one structure wait for a single
// search instead of racing through identical ones, and the returned plan is
// bound to the caller's q. The snapshot pointer is loaded once and used for
// the lookup, the search, the store and the returned version, so version is
// by construction the one whose weights scored the plan, whatever swaps land
// meanwhile. Safe for concurrent use.
func (p *Planner) OptimizeCached(q *query.Query) (*plan.Plan, *search.Result, uint64, error) {
	e, version := p.Cached(q, q.Signature())
	bound, res, err := e.Bind(q)
	return bound, res, version, err
}

// Cached is OptimizeCached for a caller that already holds q's
// signature, sig == q.Signature(): it returns the plan-cache entry itself —
// searched for q on a miss, for whichever query first had the structure on a
// hit (Bind re-binds it) — and the version of the snapshot it belongs to.
// Check the entry's Err. Safe for concurrent use.
func (p *Planner) Cached(q *query.Query, sig string) (*CachedPlan, uint64) {
	ns := p.snap.Load()
	return ns.plans.get(sig, func() (*plan.Plan, *search.Result, error) { return p.optimizeOn(ns, q) }), ns.version
}

// PlanCacheStats reports the lifetime hit/miss counters and the serving
// snapshot's cache size and version. Safe for concurrent use.
func (p *Planner) PlanCacheStats() PlanCacheStats {
	ns := p.snap.Load()
	return PlanCacheStats{
		Hits:    p.planStats.hits.Load(),
		Misses:  p.planStats.misses.Load(),
		Size:    ns.plans.size(),
		Version: ns.version,
	}
}

func (p *Planner) optimizeOn(ns *netSnapshot, q *query.Query) (*plan.Plan, *search.Result, error) {
	if dec := p.router.Decide(q); dec.Fastpath {
		fr, err := fastpath.Plan(q, p.Featurizer.Catalog)
		if err != nil {
			return nil, nil, err
		}
		p.router.RecordFastpathLatency(dec.Class, fr.Elapsed)
		res := &search.Result{
			Plan:       fr.Plan,
			Score:      fastpath.Cost(fr.Plan, p.Featurizer.Catalog),
			Expansions: fr.Steps,
			Elapsed:    fr.Elapsed,
		}
		return fr.Plan, res, nil
	}
	opts := search.Options{
		Catalog:       p.Featurizer.Catalog,
		MaxExpansions: p.Config.SearchExpansions,
	}
	res, err := search.BestFirst(q, p.scorerOn(ns, q), opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Plan, res, nil
}

// RouteStats snapshots the router's per-class decision counters, fast-path
// planning-latency percentiles and regret accounting. Safe for concurrent
// use.
func (p *Planner) RouteStats() route.StatsSnapshot { return p.router.Stats() }

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
func (p *Planner) ObserveLatency(q *query.Query, observedMS float64) {
	if observedMS <= 0 || !p.router.NeedsOutcome(q) {
		return
	}
	if p.Config.Cost == RelativeCost {
		// Under the relative objective the network predicts latency divided
		// by the per-query baseline; bring the observation into the same
		// units (skip the sample when no baseline is known yet).
		base, ok := p.Baseline(q.ID)
		if !ok || base <= 0 {
			return
		}
		observedMS /= base
	}
	// ScoreBatch predicts in the original cost domain, so the
	// observed/estimated ratio is unit-free.
	sc := p.scorerOn(p.snap.Load(), q)
	estimate := sc.ScoreBatch([]*plan.Plan{plan.Initial(q, sc.nodes)})[0]
	p.router.RecordOutcome(route.Classify(q).Key(), observedMS, estimate)
}

// OptimizeGreedy builds a plan greedily (the "hurry-up"/Q-learning-style
// ablation of Section 4.2).
func (p *Planner) OptimizeGreedy(q *query.Query) (*plan.Plan, *search.Result, error) {
	opts := search.Options{Catalog: p.Featurizer.Catalog}
	res, err := search.Greedy(q, p.Scorer(q), opts)
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

// planAndSimulate fans plan search plus deterministic plan simulation out
// over GOMAXPROCS workers. The engine's run-to-run noise is deliberately
// NOT applied here: the caller commits the returned base latencies in input
// order, so the engine's noise stream is drawn in exactly the order the
// serial loop would draw it, and results are bit-identical to serial
// execution for a fixed seed no matter how many workers raced.
func (l *Learner) planAndSimulate(queries []*query.Query) []planExec {
	out := make([]planExec, len(queries))
	nn.Parallel(runtime.GOMAXPROCS(0), len(queries), func(i int) { out[i] = l.planAndSimulateOne(queries[i]) })
	return out
}

func (l *Learner) planAndSimulateOne(q *query.Query) planExec {
	p, _, err := l.planner.Optimize(q)
	if err != nil {
		return planExec{err: err}
	}
	base, _, err := l.Engine.Simulate(p)
	if err != nil {
		return planExec{err: err}
	}
	return planExec{plan: p, base: base}
}

// RunEpisode performs one full training episode (Section 6.3.1): for every
// training query, search for a plan with the current value network, execute
// it on the engine, add the plan/latency pair to the experience, and finally
// retrain the network. Plan search and plan simulation fan out over
// GOMAXPROCS workers, while the episode's shuffle, the
// engine's noise draws, the experience appends and the final retraining all
// happen in deterministic order — so the returned EpisodeStats (and all
// downstream training state) are bit-identical for a fixed seed, whatever
// the pool size.
func (l *Learner) RunEpisode(episode int, queries []*query.Query) (*EpisodeStats, error) {
	stats := &EpisodeStats{Episode: episode, QueryLatencies: make(map[string]float64)}
	shuffled := append([]*query.Query(nil), queries...)
	l.trainMu.Lock()
	l.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	l.trainMu.Unlock()

	execs := l.planAndSimulate(shuffled)
	baseTotal := 0.0
	for i, q := range shuffled {
		if err := execs[i].err; err != nil {
			return nil, fmt.Errorf("core: episode %d query %s: %w", episode, q.ID, err)
		}
		lat := l.Engine.Commit(execs[i].base)
		l.Experience.Add(q, execs[i].plan, lat)
		l.planner.ObserveLatency(q, lat)
		stats.TotalLatency += lat
		stats.QueryLatencies[q.ID] = lat
		if base, ok := l.planner.Baseline(q.ID); ok {
			baseTotal += base
		} else {
			baseTotal += lat
		}
	}
	if baseTotal > 0 {
		stats.NormalizedLatency = stats.TotalLatency / baseTotal
	}
	stats.TrainLoss = l.Retrain()
	return stats, nil
}

// Evaluate optimizes and executes each query without adding the results to
// the experience (held-out evaluation). It returns the total latency and the
// per-query latencies. Like RunEpisode, searches and plan simulations fan out
// over GOMAXPROCS workers while the engine's noise draws commit in input order, so
// per-query plans and latencies are identical for a fixed seed.
func (l *Learner) Evaluate(queries []*query.Query) (float64, map[string]float64, error) {
	execs := l.planAndSimulate(queries)
	perQuery := make(map[string]float64, len(queries))
	total := 0.0
	for i, q := range queries {
		if execs[i].err != nil {
			return 0, nil, execs[i].err
		}
		lat := l.Engine.Commit(execs[i].base)
		perQuery[q.ID] = lat
		total += lat
	}
	return total, perQuery, nil
}

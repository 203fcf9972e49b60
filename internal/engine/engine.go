// Package engine implements the simulated database execution engines that
// stand in for the four real systems of the paper's evaluation (PostgreSQL,
// SQLite, MS SQL Server, Oracle — the latter two appear here under the
// neutral names EngineM and EngineO).
//
// All engines share the physical executor (package executor), which
// determines the true cardinalities flowing through a plan; an engine's
// identity is its cost Profile: per-operator coefficients, memory limits,
// parallelism and noise. Executing a plan on an engine therefore yields a
// simulated latency whose *ordering across plans* mimics how the real system
// would rank them (bad join orders blow up intermediate results on every
// engine; loop joins hurt more on engines without indexes in memory; hash
// joins spill on small-memory engines; and so on).
package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"neo/internal/executor"
	"neo/internal/plan"
	"neo/internal/storage"
)

// Profile holds the cost coefficients that define a simulated engine.
// Costs are in abstract work units; CostScale converts the total into
// simulated milliseconds.
type Profile struct {
	// Name identifies the engine ("postgres", "sqlite", "engine-m", "engine-o").
	Name string
	// SeqRowCost is the cost of reading one row in a sequential scan.
	SeqRowCost float64
	// IdxLookupCost is the cost of one index traversal (per lookup).
	IdxLookupCost float64
	// IdxRowCost is the cost of fetching one row through an index.
	IdxRowCost float64
	// HashBuildCost and HashProbeCost are per-row costs of a hash join.
	HashBuildCost, HashProbeCost float64
	// MergeRowCost is the per-row cost of the merge phase of a merge join.
	MergeRowCost float64
	// SortRowCost multiplies n·log2(n) when a merge-join input needs sorting.
	SortRowCost float64
	// LoopRowCost is the per-pair cost of a non-indexed nested-loop join.
	LoopRowCost float64
	// OutputRowCost is the per-row cost of emitting join output.
	OutputRowCost float64
	// MemoryRows is the hash-build memory budget in rows; larger builds spill.
	MemoryRows float64
	// SpillFactor multiplies hash-join cost when the build side spills.
	SpillFactor float64
	// Parallelism divides total plan cost (degree of intra-query parallelism).
	Parallelism float64
	// CostScale converts work units into simulated milliseconds.
	CostScale float64
	// BaseLatencyMS is a fixed per-query overhead.
	BaseLatencyMS float64
	// NoiseFraction is the relative magnitude of multiplicative run-to-run
	// latency noise.
	NoiseFraction float64
}

// PostgreSQLProfile models an open-source row store with modest parallelism
// and a balanced operator mix.
func PostgreSQLProfile() Profile {
	return Profile{
		Name:       "postgres",
		SeqRowCost: 1.0, IdxLookupCost: 4.0, IdxRowCost: 2.0,
		HashBuildCost: 1.6, HashProbeCost: 1.0, MergeRowCost: 0.9, SortRowCost: 0.25,
		LoopRowCost: 0.08, OutputRowCost: 0.25,
		MemoryRows: 40000, SpillFactor: 3.0,
		Parallelism: 2.0, CostScale: 0.004, BaseLatencyMS: 2.0, NoiseFraction: 0.05,
	}
}

// SQLiteProfile models a single-threaded embedded engine that favours
// index-nested-loop joins (its hash and merge operators are weak).
func SQLiteProfile() Profile {
	return Profile{
		Name:       "sqlite",
		SeqRowCost: 1.2, IdxLookupCost: 3.0, IdxRowCost: 1.5,
		HashBuildCost: 3.2, HashProbeCost: 2.0, MergeRowCost: 2.0, SortRowCost: 0.5,
		LoopRowCost: 0.10, OutputRowCost: 0.30,
		MemoryRows: 10000, SpillFactor: 5.0,
		Parallelism: 1.0, CostScale: 0.004, BaseLatencyMS: 1.0, NoiseFraction: 0.04,
	}
}

// EngineMProfile models a commercial engine (in the spirit of MS SQL Server)
// with strong hash joins, large memory and high parallelism.
func EngineMProfile() Profile {
	return Profile{
		Name:       "engine-m",
		SeqRowCost: 0.8, IdxLookupCost: 3.5, IdxRowCost: 1.6,
		HashBuildCost: 1.1, HashProbeCost: 0.7, MergeRowCost: 0.7, SortRowCost: 0.18,
		LoopRowCost: 0.07, OutputRowCost: 0.2,
		MemoryRows: 120000, SpillFactor: 2.5,
		Parallelism: 4.0, CostScale: 0.004, BaseLatencyMS: 3.0, NoiseFraction: 0.05,
	}
}

// EngineOProfile models a second commercial engine (in the spirit of Oracle)
// with strong merge joins and aggressive indexing.
func EngineOProfile() Profile {
	return Profile{
		Name:       "engine-o",
		SeqRowCost: 0.9, IdxLookupCost: 2.8, IdxRowCost: 1.2,
		HashBuildCost: 1.3, HashProbeCost: 0.8, MergeRowCost: 0.55, SortRowCost: 0.15,
		LoopRowCost: 0.06, OutputRowCost: 0.2,
		MemoryRows: 100000, SpillFactor: 2.5,
		Parallelism: 4.0, CostScale: 0.004, BaseLatencyMS: 3.0, NoiseFraction: 0.05,
	}
}

// DiskProfile is the cost profile paired with the disk backend. Execution
// latency is measured, not simulated, so NoiseFraction is zero (Commit adds
// nothing either way on a measured backend); the operator coefficients still
// matter because the classical optimizers plan with this cost model before
// the disk backend runs the winner.
func DiskProfile() Profile {
	p := PostgreSQLProfile()
	p.Name = "disk"
	p.NoiseFraction = 0
	return p
}

// Profiles returns the four simulated engine profiles in the order the paper
// reports them (PostgreSQL, SQLite, commercial M, commercial O). The disk
// profile is deliberately absent: it is not a simulated engine, and the
// experiment harness iterates this list when comparing simulators.
func Profiles() []Profile {
	return []Profile{PostgreSQLProfile(), SQLiteProfile(), EngineMProfile(), EngineOProfile()}
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, error) {
	if name == "disk" {
		return DiskProfile(), nil
	}
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("engine: unknown profile %q", name)
}

// Engine is an execution engine bound to a database through a pluggable
// ExecutionBackend. With the default SimBackend it is the simulated engine
// the cost profiles describe; with a DiskBackend the same Engine surface
// feeds measured wall-clock latencies into the learning loop.
type Engine struct {
	Profile Profile
	Backend ExecutionBackend

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu
	// simulatedMS accumulates total (simulated or measured) execution time.
	simulatedMS float64 // guarded by mu
}

// New creates an engine with the given profile over the given in-memory
// database, backed by the simulated executor.
func New(profile Profile, db *storage.Database) *Engine {
	return NewWithBackend(profile, NewSimBackend(profile, db))
}

// ByName builds the engine called name (see ProfileByName) over db. The
// simulated engines execute over db itself; "disk" executes against the
// on-disk copy that disk returns, which no other engine asks for.
func ByName(name string, db *storage.Database, disk func() (*storage.DiskDB, error)) (*Engine, error) {
	prof, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	if name != "disk" {
		return New(prof, db), nil
	}
	ddb, err := disk()
	if err != nil {
		return nil, err
	}
	return NewWithBackend(prof, NewDiskBackend(ddb)), nil
}

// NewWithBackend creates an engine over an arbitrary execution backend. The
// profile still defines the engine's cost model (CostResult), which the
// classical optimizers use for planning even when execution is measured.
func NewWithBackend(profile Profile, backend ExecutionBackend) *Engine {
	return &Engine{
		Profile: profile,
		Backend: backend,
		rng:     rand.New(rand.NewSource(int64(len(profile.Name)) * 7919)),
	}
}

// Executor returns the executor over the in-memory column store when the
// engine runs on the simulated backend, and nil otherwise. Callers that need
// one regardless of backend (selectivity probing, true-cardinality counting)
// should construct their own from the database.
func (e *Engine) Executor() *executor.Executor {
	if sb, ok := e.Backend.(*SimBackend); ok {
		return sb.Exec
	}
	return nil
}

// Execute runs a complete plan and returns its simulated latency in
// milliseconds along with the executor's per-node statistics. It is
// equivalent to Simulate followed by Commit.
func (e *Engine) Execute(p *plan.Plan) (float64, *executor.Result, error) {
	base, res, err := e.Simulate(p)
	if err != nil {
		return 0, nil, err
	}
	return e.Commit(base), res, nil
}

// Simulate runs a complete plan on the backend and returns its base latency,
// without drawing run-to-run noise or touching the engine's execution
// accounting. It only reads shared engine state, so any number of goroutines
// may Simulate concurrently; pair each call with a later Commit to obtain
// the final latency. Splitting execution this way lets a parallel episode
// pipeline fan the expensive executor work out over workers while still
// drawing the engine's noise stream in a deterministic order. (On a measured
// backend "Simulate" is a real execution and the base latency is wall-clock
// time; the split still holds because Commit adds nothing to it.)
func (e *Engine) Simulate(p *plan.Plan) (float64, *executor.Result, error) {
	return e.Backend.Run(p)
}

// Commit applies run-to-run noise to a latency returned by Simulate and
// records the execution in the engine's accounting. Noise is drawn from one
// engine-wide stream in Commit order, so callers that commit in a fixed
// order get bit-identical latencies regardless of how the preceding
// Simulate calls were scheduled.
//
// On a measured backend the latency already contains real run-to-run
// variation, so no noise is applied — and no random draw is consumed, which
// keeps the noise stream's determinism contract intact if backends are ever
// mixed.
func (e *Engine) Commit(base float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	lat := base
	if !e.Backend.Measured() {
		noise := 1.0 + (e.rng.Float64()*2-1)*e.Profile.NoiseFraction
		lat = base * noise
	}
	e.simulatedMS += lat
	return lat
}

// SimulatedTimeMS returns the cumulative simulated execution time.
func (e *Engine) SimulatedTimeMS() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.simulatedMS
}

// CostResult prices an executed (or estimated) plan with the engine's
// profile. Kept as an Engine method because the classical optimizers cost
// candidate plans through their engine handle regardless of which backend
// executes the winner.
func (e *Engine) CostResult(root *plan.Node, nodes map[*plan.Node]*executor.NodeStats) float64 {
	return e.Profile.CostResult(root, nodes)
}

// CostResult prices an executed (or estimated) plan: given the root node and
// per-node statistics, it returns the deterministic simulated latency in
// milliseconds (no noise). The same function serves both real execution
// results and the estimated statistics produced by the classical optimizers,
// which is exactly how a traditional cost-based optimizer uses its model.
func (p Profile) CostResult(root *plan.Node, nodes map[*plan.Node]*executor.NodeStats) float64 {
	work := p.nodeCost(root, nodes)
	return work/p.Parallelism*p.CostScale + p.BaseLatencyMS
}

// nodeCost recursively prices the subtree rooted at n in work units.
func (p Profile) nodeCost(n *plan.Node, nodes map[*plan.Node]*executor.NodeStats) float64 {
	if n == nil {
		return 0
	}
	ns := nodes[n]
	if ns == nil {
		return 0
	}
	if n.IsLeaf() {
		return p.scanCost(n, ns)
	}

	out := p.OutputRowCost * ns.OutputRows
	left := p.nodeCost(n.Left, nodes)

	switch n.Join {
	case plan.HashJoin:
		right := p.nodeCost(n.Right, nodes)
		cost := p.HashBuildCost*ns.RightRows + p.HashProbeCost*ns.LeftRows
		if ns.RightRows > p.MemoryRows {
			cost *= p.SpillFactor
		}
		if ns.CrossProduct {
			cost += p.LoopRowCost * ns.LeftRows * ns.RightRows
		}
		return left + right + cost + out
	case plan.MergeJoin:
		right := p.nodeCost(n.Right, nodes)
		cost := p.MergeRowCost * (ns.LeftRows + ns.RightRows)
		if !ns.LeftSorted {
			cost += sortCost(p, ns.LeftRows)
		}
		if !ns.RightSorted {
			cost += sortCost(p, ns.RightRows)
		}
		if ns.CrossProduct {
			cost += p.LoopRowCost * ns.LeftRows * ns.RightRows
		}
		return left + right + cost + out
	default: // LoopJoin
		if ns.InnerIndexOnJoinKey {
			// Index-nested-loop: the inner relation is probed through its
			// index once per outer row; the inner leaf's own scan cost is
			// not paid.
			innerStats := nodes[n.Right]
			innerBase := 1.0
			if innerStats != nil {
				innerBase = math.Max(innerStats.BaseRows, 1)
			}
			cost := ns.LeftRows*p.IdxLookupCost*math.Log2(innerBase+2) + p.IdxRowCost*ns.OutputRows
			return left + cost + out
		}
		right := p.nodeCost(n.Right, nodes)
		cost := p.LoopRowCost * math.Max(ns.LeftRows, 1) * math.Max(ns.RightRows, 1)
		return left + right + cost + out
	}
}

func (p Profile) scanCost(n *plan.Node, ns *executor.NodeStats) float64 {
	switch n.Scan {
	case plan.IndexScan:
		if ns.IndexOnPredicate {
			return p.IdxLookupCost*math.Log2(ns.BaseRows+2) + p.IdxRowCost*ns.OutputRows
		}
		// An index scan without a usable predicate still walks the whole
		// index: roughly a sequential scan with extra pointer chasing.
		return p.SeqRowCost*ns.BaseRows + p.IdxRowCost*ns.OutputRows*0.5
	default: // TableScan (and Unspecified, which never reaches execution)
		return p.SeqRowCost * ns.BaseRows
	}
}

func sortCost(p Profile, rows float64) float64 {
	if rows < 2 {
		return 0
	}
	return p.SortRowCost * rows * math.Log2(rows)
}

package engine

import (
	"time"

	"neo/internal/executor"
	"neo/internal/plan"
	"neo/internal/storage"
)

// ExecutionBackend is the pluggable execution substrate of an Engine. A
// backend runs one complete plan and returns the base latency in
// milliseconds plus the executor's per-node statistics.
//
// The contract preserves the Simulate/Commit determinism split: Run must be
// safe for concurrent use and must not consume any engine-owned randomness —
// for a simulated backend the returned latency is the deterministic cost
// model output (run-to-run noise is applied later, in Commit, from the
// engine's serialized noise stream); for a measured backend the returned
// latency is the observed wall clock and Commit applies no noise at all
// (Measured reports which case holds).
type ExecutionBackend interface {
	// Name identifies the backend ("sim", "disk").
	Name() string
	// Run executes one complete plan, returning the base latency in
	// milliseconds and per-node statistics. Safe for concurrent use.
	Run(p *plan.Plan) (float64, *executor.Result, error)
	// Measured reports whether Run's latency is observed wall-clock time
	// (true) or a deterministic simulated cost (false). Commit adds noise
	// only to simulated latencies: measured ones already contain the real
	// thing.
	Measured() bool
}

// SimBackend executes plans on the sampling executor over the in-memory
// column store and prices them with a cost Profile. It is deterministic
// (same plan, same latency) and fast, which makes it the test double and the
// default backend.
type SimBackend struct {
	Profile Profile
	Exec    *executor.Executor
}

// NewSimBackend creates the simulated backend for a profile and database.
func NewSimBackend(profile Profile, db *storage.Database) *SimBackend {
	return &SimBackend{Profile: profile, Exec: executor.New(db)}
}

// Name implements ExecutionBackend.
func (b *SimBackend) Name() string { return "sim" }

// Measured implements ExecutionBackend: simulated latencies get Commit noise.
func (b *SimBackend) Measured() bool { return false }

// Run implements ExecutionBackend.
func (b *SimBackend) Run(p *plan.Plan) (float64, *executor.Result, error) {
	res, err := b.Exec.Execute(p)
	if err != nil {
		return 0, nil, err
	}
	return b.Profile.CostResult(p.Roots[0], res.Nodes), res, nil
}

// DiskBackend executes plans against on-disk heap files through a buffer
// pool and reports the measured wall-clock latency, so the learning loop
// trains on real execution time — including effects no cost model prices,
// like page residency (cold vs hot cache).
type DiskBackend struct {
	Exec *executor.Executor
}

// NewDiskBackend creates the disk backend over an opened disk database.
func NewDiskBackend(db *storage.DiskDB) *DiskBackend {
	return &DiskBackend{Exec: executor.NewDisk(db)}
}

// Name implements ExecutionBackend.
func (b *DiskBackend) Name() string { return "disk" }

// Measured implements ExecutionBackend: latencies are real, Commit must not
// perturb them.
func (b *DiskBackend) Measured() bool { return true }

// Run implements ExecutionBackend.
func (b *DiskBackend) Run(p *plan.Plan) (float64, *executor.Result, error) {
	start := time.Now() //neo:lint-ok walltime measured backend: real execution latency IS the training signal
	res, err := b.Exec.Execute(p)
	if err != nil {
		return 0, nil, err
	}
	return float64(time.Since(start)) / float64(time.Millisecond), res, nil //neo:lint-ok walltime measured backend: real execution latency IS the training signal
}

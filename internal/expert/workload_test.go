package expert

import (
	"sync"
	"testing"

	"neo/internal/datagen"
	"neo/internal/engine"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/stats"
	"neo/internal/storage"
	"neo/internal/workload"
)

// testWorkload is a generated workload with its database and statistics.
type testWorkload struct {
	db *storage.Database
	st *stats.Stats
	wl *workload.Workload
}

// smallWorkloads generates the four workloads the experiments plan over
// (JOB, Ext-JOB, TPC-H, Corp) at a small scale.
func smallWorkloads(t *testing.T) []testWorkload {
	t.Helper()
	const n, seed = 24, 5
	gen := datagen.Config{Scale: 0.15, Seed: seed}
	var out []testWorkload
	for _, s := range []struct {
		profile datagen.Profile
		make    func(*storage.Database) (*workload.Workload, error)
	}{
		{datagen.IMDB, func(db *storage.Database) (*workload.Workload, error) { return workload.JOB(db, n, seed) }},
		{datagen.IMDB, func(db *storage.Database) (*workload.Workload, error) {
			base, err := workload.JOB(db, n, seed)
			if err != nil {
				return nil, err
			}
			return workload.ExtJOB(db, n, seed, base)
		}},
		{datagen.TPCH, func(db *storage.Database) (*workload.Workload, error) { return workload.TPCH(db, n, seed) }},
		{datagen.Corp, func(db *storage.Database) (*workload.Workload, error) { return workload.Corp(db, n, seed) }},
	} {
		db, err := datagen.Generate(s.profile, gen)
		if err != nil {
			t.Fatal(err)
		}
		st, err := stats.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := s.make(db)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, testWorkload{db, st, wl})
	}
	return out
}

// TestNativePlansJoinOnlyAlongJoinPredicates pins why Optimize needs no
// cross-product fallback: every generated query has a connected join graph
// (Validate rejects any other), and over a connected graph the dynamic
// program reaches the full relation set through joins that each carry a
// join predicate.
func TestNativePlansJoinOnlyAlongJoinPredicates(t *testing.T) {
	for _, w := range smallWorkloads(t) {
		for _, prof := range engine.Profiles() {
			opt := NativeOptimizer(engine.New(prof, w.db), w.st, w.db.Catalog)
			for _, q := range w.wl.Queries {
				p, _, err := opt.Optimize(q)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", w.wl.Name, prof.Name, q.ID, err)
				}
				if !p.IsComplete() || len(p.Roots) != 1 {
					t.Fatalf("%s/%s/%s: incomplete plan %s", w.wl.Name, prof.Name, q.ID, p)
				}
				p.Roots[0].Walk(func(n *plan.Node) {
					if !n.IsLeaf() && len(q.JoinsBetween(n.Left.TableSet(), n.Right.TableSet())) == 0 {
						t.Errorf("%s/%s/%s: cross product %s", w.wl.Name, prof.Name, q.ID, n)
					}
				})
			}
		}
	}
}

// TestOptimizeConcurrentMatchesSerial: an Optimizer holds no mutable state,
// so goroutines may share one. engine-m plans through the corrected
// estimator, which probes true selectivities with the executor.
func TestOptimizeConcurrentMatchesSerial(t *testing.T) {
	w := smallWorkloads(t)[0]
	newOptimizer := func() *Optimizer {
		return NativeOptimizer(engine.New(engine.EngineMProfile(), w.db), w.st, w.db.Catalog)
	}
	type result struct {
		plan string
		cost float64
	}
	optimize := func(opt *Optimizer, q *query.Query) result {
		p, cost, err := opt.Optimize(q)
		if err != nil {
			t.Errorf("%s: %v", q.ID, err)
			return result{}
		}
		return result{p.String(), cost}
	}
	// The serial reference runs on its own optimizer, so the shared one
	// has planned nothing before the goroutines start.
	ref := newOptimizer()
	if _, ok := ref.Est.(*CorrectedEstimator); !ok {
		t.Fatalf("engine-m estimator is %T, want *CorrectedEstimator", ref.Est)
	}
	serial := make([]result, len(w.wl.Queries))
	for i, q := range w.wl.Queries {
		serial[i] = optimize(ref, q)
	}
	shared := newOptimizer()
	const goroutines = 4
	got := make([][]result, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]result, len(w.wl.Queries))
		wg.Add(1)
		go func(out []result) {
			defer wg.Done()
			for i, q := range w.wl.Queries {
				out[i] = optimize(shared, q)
			}
		}(got[g])
	}
	wg.Wait()
	for g := range got {
		for i, q := range w.wl.Queries {
			if got[g][i] != serial[i] {
				t.Errorf("goroutine %d, %s: %v, serial %v", g, q.ID, got[g][i], serial[i])
			}
		}
	}
}

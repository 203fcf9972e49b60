package executor

import (
	"math"
	"sync"
	"testing"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/storage"
	"neo/internal/workload"
)

// diskFixture materializes the shared IMDB fixture to a temp dir and opens
// an executor over each row source of the same data: the in-memory one with
// its sampling cap raised far beyond the workload (so its counts are exact,
// like the disk one's), and the disk one with a small buffer pool so scans
// actually cycle pages through eviction.
func diskFixture(t testing.TB) (*storage.Database, *Executor, *Executor, *storage.DiskDB) {
	t.Helper()
	db := imdb(t)
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := storage.Materialize(db, dir); err != nil {
		t.Fatal(err)
	}
	ddb, err := storage.OpenDisk(dir, db.Catalog, storage.PagesForMB(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ddb.Close() })
	sim := New(db)
	sim.MaxRows = 1 << 20
	if err := ddb.VerifyAgainst(db); err != nil {
		t.Fatal(err)
	}
	return db, sim, NewDisk(ddb), ddb
}

// opPlan builds a left-deep plan for q with every join using op and every
// leaf using scan.
func opPlan(t *testing.T, q *query.Query, op plan.JoinOp, scan plan.ScanType) *plan.Plan {
	t.Helper()
	p, err := canonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	var rebuild func(n *plan.Node) *plan.Node
	rebuild = func(n *plan.Node) *plan.Node {
		if n.IsLeaf() {
			return plan.Leaf(n.Table, scan)
		}
		return plan.Join2(op, rebuild(n.Left), rebuild(n.Right))
	}
	return &plan.Plan{Query: q, Roots: []*plan.Node{rebuild(p.Roots[0])}}
}

// assertParity executes one plan over both row sources and requires
// identical per-node statistics: one operator set runs on either, so nothing
// may differ — the inner leaf of an index-nested-loop join included.
func assertParity(t *testing.T, sim, disk *Executor, p *plan.Plan) {
	t.Helper()
	simRes, err := sim.Execute(p)
	if err != nil {
		t.Fatalf("sim execute: %v", err)
	}
	diskRes, err := disk.Execute(p)
	if err != nil {
		t.Fatalf("disk execute: %v", err)
	}
	if diskRes.Truncated {
		t.Fatalf("disk execution truncated on the parity workload")
	}
	if diskRes.OutputRows != simRes.OutputRows {
		t.Fatalf("root cardinality: disk %v, sim %v (plan %s)", diskRes.OutputRows, simRes.OutputRows, p)
	}
	p.Roots[0].Walk(func(n *plan.Node) {
		sn, dn := simRes.Nodes[n], diskRes.Nodes[n]
		if sn == nil || dn == nil {
			t.Fatalf("node %s: missing stats (sim %v, disk %v)", n, sn != nil, dn != nil)
		}
		if *sn != *dn {
			t.Errorf("node %s: sim=%+v disk=%+v", n, *sn, *dn)
		}
	})
}

func TestDiskSimParityEveryJoinOperator(t *testing.T) {
	_, sim, disk, _ := diskFixture(t)
	q := loveQuery()
	for _, op := range plan.AllJoinOps {
		for _, scan := range []plan.ScanType{plan.TableScan, plan.IndexScan} {
			assertParity(t, sim, disk, opPlan(t, q, op, scan))
		}
	}
}

// TestDiskSimParityINLShape pins the index-nested-loop shape explicitly: a
// loop join whose inner child is an index scan of a base relation with an
// indexed join column. The disk backend must run it through the RID index
// and still produce the sim backend's join cardinality.
func TestDiskSimParityINLShape(t *testing.T) {
	_, sim, disk, _ := diskFixture(t)
	q := loveQuery()
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.LoopJoin,
			plan.Join2(plan.LoopJoin,
				plan.Leaf("title", plan.TableScan),
				plan.Leaf("movie_keyword", plan.IndexScan)),
			plan.Leaf("keyword", plan.IndexScan)),
	}}
	simRes, err := sim.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	// The shape must actually qualify as INL, or the test pins nothing.
	for _, n := range []*plan.Node{p.Roots[0], p.Roots[0].Left} {
		if !simRes.Nodes[n].InnerIndexOnJoinKey {
			t.Fatalf("expected InnerIndexOnJoinKey on %s", n)
		}
	}
	assertParity(t, sim, disk, p)

	// And the INL path really avoided scanning the inner tables: fetched
	// inner tuples (RightRows) stay below the inner tables' base rows.
	diskRes, err := disk.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	root := diskRes.Nodes[p.Roots[0]]
	if root.RightRows >= root.OutputRows+diskRes.Nodes[p.Roots[0].Right].BaseRows {
		t.Errorf("INL fetched %v inner rows, suspiciously many", root.RightRows)
	}
}

func TestDiskSimParitySeededWorkload(t *testing.T) {
	db, sim, disk, _ := diskFixture(t)
	w, err := workload.JOB(db, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	ops := plan.AllJoinOps
	for i, q := range w.Queries {
		assertParity(t, sim, disk, opPlan(t, q, ops[i%len(ops)], plan.TableScan))
		assertParity(t, sim, disk, opPlan(t, q, ops[(i+1)%len(ops)], plan.IndexScan))
	}
}

func TestDiskCrossProductParity(t *testing.T) {
	_, sim, disk, _ := diskFixture(t)
	// Two relations with no join predicate: both backends cap the cross
	// product at their row budget; at this scale neither cap is hit, so the
	// cardinality is the exact product.
	q := query.New("cross", []string{"keyword", "company"}, nil, []query.Predicate{
		{Table: "keyword", Column: "keyword", Op: query.Like, Value: storage.StringValue("a")},
	})
	p := &plan.Plan{Query: q, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin,
			plan.Leaf("keyword", plan.TableScan),
			plan.Leaf("company", plan.TableScan)),
	}}
	assertParity(t, sim, disk, p)
	res, err := disk.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nodes[p.Roots[0]].CrossProduct {
		t.Fatal("expected a cross-product node")
	}
}

// TestDiskBufferPoolSeesTraffic asserts executing plans actually moves pages
// through the pool: a 1 MiB pool over the fixture database must record
// misses and, across repeated scans of distinct tables, evictions.
func TestDiskBufferPoolSeesTraffic(t *testing.T) {
	_, sim, disk, ddb := diskFixture(t)
	ddb.Pool.Reset()
	q := loveQuery()
	for _, op := range plan.AllJoinOps {
		assertParity(t, sim, disk, opPlan(t, q, op, plan.TableScan))
	}
	s := ddb.Pool.Stats()
	if s.Misses == 0 || s.BytesRead == 0 {
		t.Fatalf("no buffer-pool traffic recorded: %+v", s)
	}
}

// TestDiskTruncatesPastMaxRows pins the disk executor's overflow policy: an
// intermediate that outgrows MaxRows is cut off, not sampled — the Result is
// marked Truncated, every count is a lower bound of the exact one, and it is
// not an error.
func TestDiskTruncatesPastMaxRows(t *testing.T) {
	_, sim, disk, _ := diskFixture(t)
	disk.MaxRows = 50
	p := opPlan(t, loveQuery(), plan.HashJoin, plan.TableScan)
	exact, err := sim.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := disk.Execute(p)
	if err != nil {
		t.Fatalf("a truncated execution must not fail: %v", err)
	}
	if !res.Truncated {
		t.Fatal("expected Truncated under a 50-row budget")
	}
	p.Roots[0].Walk(func(n *plan.Node) {
		got, want := res.Nodes[n], exact.Nodes[n]
		if got == nil {
			t.Fatalf("node %s: no stats", n)
		}
		if got.OutputRows > want.OutputRows || got.OutputRows > 50 {
			t.Errorf("node %s: OutputRows %v is not a lower bound (exact %v, budget 50)", n, got.OutputRows, want.OutputRows)
		}
	})
	// The same budget on the sampling executor is not a truncation.
	sim.MaxRows = 50
	sampled, err := sim.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Truncated {
		t.Error("the sampling executor marked a result truncated")
	}
}

// TestDiskExecutorConcurrentUse runs the same plans on one disk Executor
// from 8 goroutines: tuple arenas belong to an execution, so every goroutine
// must read the statistics a lone execution reads (run under -race in CI).
func TestDiskExecutorConcurrentUse(t *testing.T) {
	_, _, disk, _ := diskFixture(t)
	var plans []*plan.Plan
	var want []*Result
	for _, op := range plan.AllJoinOps {
		p := opPlan(t, loveQuery(), op, plan.IndexScan)
		res, err := disk.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		plans, want = append(plans, p), append(want, res)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range plans {
				res, err := disk.Execute(p)
				if err != nil {
					t.Error(err)
					return
				}
				p.Roots[0].Walk(func(n *plan.Node) {
					if *res.Nodes[n] != *want[i].Nodes[n] {
						t.Errorf("plan %d node %s: %+v, alone %+v", i, n, *res.Nodes[n], *want[i].Nodes[n])
					}
				})
			}
		}()
	}
	wg.Wait()
}

// ---- sampling regression tests ----

// TestMaybeSampleExactCount pins the fix for the float-stride bug: the
// sample must contain exactly limit distinct rows and card() must be exactly
// the pre-sample cardinality, for limits that do not divide the row count.
func TestMaybeSampleExactCount(t *testing.T) {
	for _, tc := range []struct{ n, limit int }{
		{100, 7}, {1000, 333}, {50001, 50000}, {99999, 1024}, {10, 9},
	} {
		r := newRelation([]string{"t"})
		for i := 0; i < tc.n; i++ {
			r.rows = append(r.rows, int32(i))
		}
		r.mult = 2 // pre-existing scale factors must compose
		r.sample(tc.limit)
		if r.len() != tc.limit {
			t.Errorf("n=%d limit=%d: sampled %d rows, want exactly %d", tc.n, tc.limit, r.len(), tc.limit)
		}
		if got, want := r.card(), 2*float64(tc.n); math.Abs(got-want) > 1e-6*want {
			t.Errorf("n=%d limit=%d: card() = %v, want %v", tc.n, tc.limit, got, want)
		}
		for i := 1; i < r.len(); i++ {
			if r.rows[i] <= r.rows[i-1] {
				t.Fatalf("n=%d limit=%d: sample indices not strictly increasing at %d", tc.n, tc.limit, i)
			}
		}
	}
}

// TestSampledCardinalityUnderAggressiveCap executes the shared join query
// under a MaxRows cap far below the intermediate sizes and checks the
// estimated cardinalities stay within tolerance of the exact ones. The
// sampled node's own card() is exact by construction; downstream joins see
// a uniform subsample, so their relative error is bounded (loosely) by the
// sampling fraction — 25% is far above what the fixed seed produces, so
// this stays deterministic while still catching a reintroduced bias.
func TestSampledCardinalityUnderAggressiveCap(t *testing.T) {
	db := imdb(t)
	q := loveQuery()

	exact := New(db)
	exact.MaxRows = 1 << 20
	p, err := canonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Execute(p)
	if err != nil {
		t.Fatal(err)
	}

	capped := New(db)
	capped.MaxRows = 300 // well below the larger base-table scans at scale 0.3
	got, err := capped.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if want.OutputRows == 0 {
		t.Fatal("fixture query returned no rows; tolerance check is vacuous")
	}
	relErr := math.Abs(got.OutputRows-want.OutputRows) / want.OutputRows
	if relErr > 0.25 {
		t.Errorf("sampled root cardinality %v vs exact %v (rel err %.3f > 0.25)",
			got.OutputRows, want.OutputRows, relErr)
	}
	// Every scan node's own cardinality must be exact even when sampled.
	p.Roots[0].Walk(func(n *plan.Node) {
		if !n.IsLeaf() {
			return
		}
		if g, w := got.Nodes[n].OutputRows, want.Nodes[n].OutputRows; g != w {
			t.Errorf("scan %s: sampled OutputRows %v, exact %v", n, g, w)
		}
	})
}

package executor

import (
	"fmt"
	"math"
	"testing"

	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/schema"
	"neo/internal/storage"
	"neo/internal/workload"
)

// microDB builds a tiny hand-authored two/three-table database with
// controlled join-key distributions, so edge-case cardinalities can be
// asserted exactly: duplicate keys on both sides, keys with no partner, and
// a secondary match column for multi-predicate joins.
func microDB(t testing.TB) *storage.Database {
	t.Helper()
	cat, err := schema.NewCatalog([]*schema.Table{
		{Name: "l", PrimaryKey: "id", Columns: []schema.Column{
			{Name: "id", Type: schema.IntType},
			{Name: "k", Type: schema.IntType},
			{Name: "m", Type: schema.IntType},
			{Name: "tag", Type: schema.StringType},
		}},
		{Name: "r", PrimaryKey: "id", Columns: []schema.Column{
			{Name: "id", Type: schema.IntType},
			{Name: "k", Type: schema.IntType},
			{Name: "m", Type: schema.IntType},
		}},
		{Name: "s", PrimaryKey: "id", Columns: []schema.Column{
			{Name: "id", Type: schema.IntType},
			{Name: "rid", Type: schema.IntType},
		}},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	iv, sv := storage.IntValue, storage.StringValue
	// l.k: 1,1,2,3 — duplicates on key 1, key 3 has no partner in r.
	// l.m: distinguishes the multi-predicate join.
	lRows := [][]storage.Value{
		{iv(1), iv(1), iv(10), sv("a")},
		{iv(2), iv(1), iv(20), sv("a")},
		{iv(3), iv(2), iv(10), sv("b")},
		{iv(4), iv(3), iv(10), sv("b")},
	}
	// r.k: 1,1,1,2,4 — triplicate key 1, key 4 has no partner in l.
	rRows := [][]storage.Value{
		{iv(1), iv(1), iv(10)},
		{iv(2), iv(1), iv(20)},
		{iv(3), iv(1), iv(30)},
		{iv(4), iv(2), iv(10)},
		{iv(5), iv(4), iv(10)},
	}
	// s.rid references r.id: two children of r1, one of r4.
	sRows := [][]storage.Value{
		{iv(1), iv(1)},
		{iv(2), iv(1)},
		{iv(3), iv(4)},
	}
	for table, rows := range map[string][][]storage.Value{"l": lRows, "r": rRows, "s": sRows} {
		for _, row := range rows {
			if err := db.Table(table).AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	return db
}

func joinLR() []query.JoinPredicate {
	return []query.JoinPredicate{{LeftTable: "l", LeftColumn: "k", RightTable: "r", RightColumn: "k"}}
}

// TestJoinEdgeCasesAcrossOperators drives MergeJoin and LoopJoin (and
// HashJoin as the reference) through the under-covered paths: empty inputs
// on either side, duplicate join keys on both sides, and multi-predicate
// joins — asserting the exact output cardinality for every operator, since
// the physical operator may change cost but never the result.
func TestJoinEdgeCasesAcrossOperators(t *testing.T) {
	db := microDB(t)
	e := New(db)

	cases := []struct {
		name  string
		preds []query.Predicate
		joins []query.JoinPredicate
		want  float64
	}{
		{
			// k=1: 2 left x 3 right = 6; k=2: 1x1 = 1; keys 3 and 4 unmatched.
			name:  "duplicate join keys both sides",
			joins: joinLR(),
			want:  7,
		},
		{
			// Empty left input: no l row has tag "zzz".
			name: "empty left input",
			preds: []query.Predicate{
				{Table: "l", Column: "tag", Op: query.Eq, Value: storage.StringValue("zzz")},
			},
			joins: joinLR(),
			want:  0,
		},
		{
			// Empty right input: no r row has id > 100.
			name: "empty right input",
			preds: []query.Predicate{
				{Table: "r", Column: "id", Op: query.Gt, Value: storage.IntValue(100)},
			},
			joins: joinLR(),
			want:  0,
		},
		{
			// Multi-predicate join: l.k=r.k AND l.m=r.m keeps only the
			// key-and-m matches: (l1,r1) k=1,m=10; (l2,r2) k=1,m=20;
			// (l3,r4) k=2,m=10.
			name: "multi-predicate join",
			joins: append(joinLR(),
				query.JoinPredicate{LeftTable: "l", LeftColumn: "m", RightTable: "r", RightColumn: "m"}),
			want: 3,
		},
		{
			// Filter + duplicates: tag="a" keeps l1,l2 (both k=1) -> 2x3.
			name: "filtered left with duplicate keys",
			preds: []query.Predicate{
				{Table: "l", Column: "tag", Op: query.Eq, Value: storage.StringValue("a")},
			},
			joins: joinLR(),
			want:  6,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, op := range plan.AllJoinOps {
				for _, swapped := range []bool{false, true} {
					q := query.New(fmt.Sprintf("%s-%v-%v", tc.name, op, swapped),
						[]string{"l", "r"}, tc.joins, tc.preds)
					left := plan.Leaf("l", plan.TableScan)
					right := plan.Leaf("r", plan.TableScan)
					var root *plan.Node
					if swapped {
						root = plan.Join2(op, right, left)
					} else {
						root = plan.Join2(op, left, right)
					}
					p := &plan.Plan{Query: q, Roots: []*plan.Node{root}}
					res, err := e.Execute(p)
					if err != nil {
						t.Fatalf("%v swapped=%v: %v", op, swapped, err)
					}
					if res.OutputRows != tc.want {
						t.Errorf("%v swapped=%v: OutputRows = %v, want %v",
							op, swapped, res.OutputRows, tc.want)
					}
					ns := res.Nodes[root]
					if ns == nil {
						t.Fatalf("%v swapped=%v: missing join node stats", op, swapped)
					}
					if ns.CrossProduct {
						t.Errorf("%v swapped=%v: predicate join flagged as cross product", op, swapped)
					}
				}
			}
		})
	}
}

// TestCardinalityInvariantAcrossAllJoinOps asserts the executor's core
// contract on a three-table plan: for one logical plan shape, every
// assignment of physical join operators — all 9 combinations over two join
// nodes — produces the identical result cardinality.
func TestCardinalityInvariantAcrossAllJoinOps(t *testing.T) {
	db := microDB(t)
	e := New(db)
	q := query.New("three-way", []string{"l", "r", "s"},
		append(joinLR(),
			query.JoinPredicate{LeftTable: "s", LeftColumn: "rid", RightTable: "r", RightColumn: "id"}),
		nil)

	// Reference cardinality from the canonical plan path.
	want, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	// (l ⋈ r) pairs: 7. s children: r1 has 2, r2/r3/r4 have 0/0/1.
	// l1,l2 each meet r1 (2 children) and r2, r3 (0); l3 meets r4 (1 child):
	// (l1,r1)x2 + (l2,r1)x2 + (l3,r4)x1 = 5.
	if want != 5 {
		t.Fatalf("canonical three-way cardinality = %v, want 5 (fixture drifted)", want)
	}

	for _, opLower := range plan.AllJoinOps {
		for _, opUpper := range plan.AllJoinOps {
			root := plan.Join2(opUpper,
				plan.Join2(opLower, plan.Leaf("l", plan.TableScan), plan.Leaf("r", plan.TableScan)),
				plan.Leaf("s", plan.TableScan))
			p := &plan.Plan{Query: q, Roots: []*plan.Node{root}}
			res, err := e.Execute(p)
			if err != nil {
				t.Fatalf("%v/%v: %v", opLower, opUpper, err)
			}
			if res.OutputRows != want {
				t.Errorf("%v/%v: OutputRows = %v, want %v", opLower, opUpper, res.OutputRows, want)
			}
		}
	}

	// The same contract on the seeded JOB workload, under the default
	// sampling cap the simulated engines run with: every join operator ×
	// scan type reports the reference plan's OutputRows and LeftRows at
	// every join node. (RightRows is exempt: an index-nested-loop join
	// counts index fetches there.) This is what makes running the named
	// operator on a cost-priced engine safe.
	imdbDB := imdb(t)
	jobExec := New(imdbDB)
	w, err := workload.JOB(imdbDB, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		ref := opPlan(t, q, plan.HashJoin, plan.TableScan)
		refRes, err := jobExec.Execute(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range plan.AllJoinOps {
			for _, scan := range []plan.ScanType{plan.TableScan, plan.IndexScan} {
				p := opPlan(t, q, op, scan)
				res, err := jobExec.Execute(p)
				if err != nil {
					t.Fatalf("%s %v/%v: %v", q.ID, op, scan, err)
				}
				for rn, n := ref.Roots[0], p.Roots[0]; !n.IsLeaf(); rn, n = rn.Left, n.Left {
					got, want := res.Nodes[n], refRes.Nodes[rn]
					if got.OutputRows != want.OutputRows || got.LeftRows != want.LeftRows {
						t.Errorf("%s %v/%v at %s: out/left = %v/%v, reference %v/%v",
							q.ID, op, scan, n, got.OutputRows, got.LeftRows, want.OutputRows, want.LeftRows)
					}
				}
			}
		}
	}
}

// TestJoinStatsOnEmptyInputs pins down the node statistics the cost models
// consume when one side of a join is empty — zero output, correct input
// cardinalities, and no crash in any operator.
func TestJoinStatsOnEmptyInputs(t *testing.T) {
	db := microDB(t)
	e := New(db)
	q := query.New("empty", []string{"l", "r"}, joinLR(), []query.Predicate{
		{Table: "l", Column: "id", Op: query.Lt, Value: storage.IntValue(0)},
	})
	for _, op := range plan.AllJoinOps {
		lLeaf := plan.Leaf("l", plan.TableScan)
		root := plan.Join2(op, lLeaf, plan.Leaf("r", plan.TableScan))
		p := &plan.Plan{Query: q, Roots: []*plan.Node{root}}
		res, err := e.Execute(p)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		join := res.Nodes[root]
		if join.LeftRows != 0 || join.RightRows != 5 || join.OutputRows != 0 {
			t.Errorf("%v: join stats = %+v, want 0 left / 5 right / 0 out", op, join)
		}
		scan := res.Nodes[lLeaf]
		if scan.OutputRows != 0 || scan.Selectivity != 0 {
			t.Errorf("%v: scan stats = %+v, want empty", op, scan)
		}
	}
}

// TestEarlyStopScalesByUnprobedLeftInput pins the cardinality of a join whose
// output runs away under the sampling policy: the probe loop stops once the
// output passes joinSlack × MaxRows, and the rows it never got to must be
// accounted for by the share of the left input left unprobed. 100 left rows
// each meet 50 of 100 right rows (5 000 pairs); under MaxRows 100 neither
// scan is sampled and the loop stops after 9 left rows and 450 pairs, which
// used to be reported as 450.
func TestEarlyStopScalesByUnprobedLeftInput(t *testing.T) {
	cols := []schema.Column{{Name: "id", Type: schema.IntType}, {Name: "k", Type: schema.IntType}}
	cat, err := schema.NewCatalog([]*schema.Table{
		{Name: "a", PrimaryKey: "id", Columns: cols},
		{Name: "b", PrimaryKey: "id", Columns: cols},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	for table, rows := range map[string]int{"a": 100, "b": 100} {
		for i := 0; i < rows; i++ {
			if err := db.Table(table).AppendRow(storage.IntValue(int64(i)), storage.IntValue(int64(i%2))); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := query.New("many-to-many", []string{"a", "b"},
		[]query.JoinPredicate{{LeftTable: "a", LeftColumn: "k", RightTable: "b", RightColumn: "k"}}, nil)
	e := New(db)
	e.MaxRows = 100
	for _, op := range plan.AllJoinOps {
		root := plan.Join2(op, plan.Leaf("a", plan.TableScan), plan.Leaf("b", plan.TableScan))
		res, err := e.Execute(&plan.Plan{Query: q, Roots: []*plan.Node{root}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.OutputRows-5000) > 500 {
			t.Errorf("%v: OutputRows = %v, want about 5000", op, res.OutputRows)
		}
		if res.Truncated {
			t.Errorf("%v: a sampling executor marked its result truncated", op)
		}
	}
}

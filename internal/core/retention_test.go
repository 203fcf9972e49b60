//go:build go1.24

// The weak package arrived in Go 1.24; on older toolchains this file is left
// out.

package core

import (
	"runtime"
	"testing"
	"weak"

	"neo/internal/plan"
	"neo/internal/search"
)

// TestSearchResultDoesNotPinNodeTable: a search's result outlives the search
// — the plan cache and the experience keep it — but the node table the
// search drew its states from must not. A table's nodes carry its generation
// number, not a pointer to it, so once only the result plan is held, a
// garbage collection frees the table. (Nodes that pointed at their table
// would make every cached plan pin a whole search's table.)
func TestSearchResultDoesNotPinNodeTable(t *testing.T) {
	rig := newRig(t, "postgres")
	if err := rig.neo.Bootstrap(rig.wl.Queries[:4], rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	q := rig.wl.ByID("job-4b")
	opts := search.Options{Catalog: rig.feat.Catalog, MaxExpansions: 256}

	// The scorer, the table and the result struct live only inside this call.
	searchOnce := func() (*plan.Plan, weak.Pointer[plan.Nodes], int) {
		sc := rig.neo.Scorer(q)
		nodes := sc.(search.NodeScorer).Nodes()
		res, err := search.BestFirst(q, sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Plan, weak.Make(nodes), nodes.Len()
	}
	p, table, size := searchOnce()
	if size < 500 {
		t.Fatalf("the search's table holds %d nodes; the test is for a search of hundreds", size)
	}
	runtime.GC()
	if table.Value() != nil {
		t.Errorf("holding only the result plan %s keeps the search's node table of %d nodes alive", p, size)
	}
	runtime.KeepAlive(p)
}

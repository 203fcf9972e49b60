package core

import (
	"testing"

	"neo/internal/plan"
	"neo/internal/query"
)

// TestExperienceTrimKeepsNewest: Trim keeps the newest entries in insertion
// order, and the per-query index MinCostContaining reads is rebuilt over the
// survivors only — the dropped entry held the query's lowest latency.
func TestExperienceTrimKeepsNewest(t *testing.T) {
	e := NewExperience()
	q := query.New("q", []string{"title"}, nil, nil)
	p := &plan.Plan{Query: q, Roots: []*plan.Node{plan.Leaf("title", plan.TableScan)}}
	for _, lat := range []float64{10, 50, 40, 30} {
		e.Add(q, p, lat)
	}
	e.Trim(2)
	got := e.Entries()
	if len(got) != 2 || got[0].Latency != 40 || got[1].Latency != 30 {
		t.Fatalf("Entries after Trim(2) = %+v, want latencies 40, 30", got)
	}
	cost, ok := e.MinCostContaining(plan.Initial(q), func(en Entry) float64 { return en.Latency })
	if !ok || cost != 30 {
		t.Errorf("MinCostContaining after Trim = %v, %v; want 30, true", cost, ok)
	}
}

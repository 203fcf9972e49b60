package search

import (
	"sort"
	"testing"

	"neo/internal/datagen"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/workload"
)

// randomQueries returns seeded random 3–7-relation queries over the IMDB-like
// schema.
func randomQueries(t *testing.T, n int) []*query.Query {
	t.Helper()
	db, err := datagen.GenerateIMDB(datagen.Config{Scale: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.JOB(db, n, 31)
	if err != nil {
		t.Fatal(err)
	}
	return wl.Queries
}

// jitterScorer is structuralScorer made query- and plan-specific: a
// deterministic per-plan perturbation (from the structural hash) breaks the
// ties structuralScorer leaves everywhere, so different queries and budgets
// drive the search down genuinely different paths.
func jitterScorer(p *plan.Plan) float64 {
	h := p.Hash()
	return structuralScorer(p) + float64(h[0]>>44)/float64(1<<20)
}

// checkPlanValid asserts the search's output contract: a complete plan that
// scans every relation of the query exactly once and joins only connected
// inputs unless cross products were allowed.
func checkPlanValid(t *testing.T, q *query.Query, p *plan.Plan, allowCross bool) {
	t.Helper()
	if !p.IsComplete() {
		t.Fatalf("%s: plan is not complete: %s", q.ID, p)
	}
	var scanned []string
	p.Roots[0].Walk(func(n *plan.Node) {
		if n.IsLeaf() {
			scanned = append(scanned, n.Table)
			return
		}
		if !allowCross && !q.Connected(n.Left.TableSet(), n.Right.TableSet()) {
			t.Errorf("%s: cross-product join %s in %s", q.ID, n, p)
		}
	})
	sort.Strings(scanned)
	want := append([]string(nil), q.Relations...)
	sort.Strings(want)
	if len(scanned) != len(want) {
		t.Fatalf("%s: plan scans %v, query has %v", q.ID, scanned, want)
	}
	for i := range want {
		if scanned[i] != want[i] {
			t.Fatalf("%s: plan scans %v, query has %v", q.ID, scanned, want)
		}
	}
}

// TestSearchProperties holds BestFirst to its contract on seeded random
// queries, at budgets from "hurry-up immediately" to "exhaust the space":
// the plan is valid for the query, the reported effort stays within the
// budget plus the two hurry-up descents, and once a budget has completed a
// plan inside the best-first loop every larger budget — which sees the same
// complete plans and more — returns one scoring no worse. (A hurry-up plan
// promises nothing of the kind: its greedy descents start wherever the
// budget happened to run out.)
func TestSearchProperties(t *testing.T) {
	cat := datagen.IMDBCatalog()
	budgets := []int{1, 4, 16, 64, 256, 1024}
	compared := 0
	for qi, q := range randomQueries(t, 24) {
		allowCross := qi%3 == 2
		prev, prevInLoop := 0.0, false
		for bi, budget := range budgets {
			res, err := BestFirst(q, ScorerFunc(jitterScorer), Options{Catalog: cat, MaxExpansions: budget, AllowCrossProducts: allowCross})
			if err != nil {
				t.Fatalf("%s, budget %d: %v", q.ID, budget, err)
			}
			checkPlanValid(t, q, res.Plan, allowCross)
			if res.Score != jitterScorer(res.Plan) {
				t.Errorf("%s, budget %d: reported score %v, the plan scores %v", q.ID, budget, res.Score, jitterScorer(res.Plan))
			}
			// Each descent step joins two roots or specifies a scan: at most
			// 2n−1 steps from the initial state, twice over.
			limit := budget
			if res.HurryUp {
				limit += 2 * (2*len(q.Relations) - 1)
			}
			if res.Expansions > limit {
				t.Errorf("%s, budget %d: %d expansions (hurry-up %v), limit %d", q.ID, budget, res.Expansions, res.HurryUp, limit)
			}
			if prevInLoop {
				compared++
				if res.HurryUp || res.Score > prev {
					t.Errorf("%s: budget %d returned score %v (hurry-up %v), worse than %v at budget %d",
						q.ID, budget, res.Score, res.HurryUp, prev, budgets[bi-1])
				}
			}
			prev, prevInLoop = res.Score, !res.HurryUp
		}
	}
	if compared < 24 {
		t.Errorf("only %d budget pairs compared; the budgets no longer reach past hurry-up", compared)
	}
}

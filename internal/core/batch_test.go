package core

import (
	"math"
	"testing"

	"neo/internal/plan"
	"neo/internal/search"
)

// TestScorerBatchMatchesSequential checks end-to-end scorer parity with the
// real value network: BestFirst driven by the batched netScorer must return
// the identical plan signature, score and search effort as BestFirst driven
// by the same network scored one plan at a time.
func TestScorerBatchMatchesSequential(t *testing.T) {
	rig := newRig(t, "postgres")
	queries := rig.wl.Queries[:6]
	if err := rig.neo.Bootstrap(queries, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}

	opts := search.Options{Catalog: rig.feat.Catalog, MaxExpansions: rig.neo.Config.SearchExpansions}
	for _, q := range queries {
		batched := rig.neo.Scorer(q)
		// Sequential path: the same network, scored one plan per call.
		sequential := search.ScorerFunc(func(p *plan.Plan) float64 {
			return batched.ScoreBatch([]*plan.Plan{p})[0]
		})

		bres, err := search.BestFirst(q, batched, opts)
		if err != nil {
			t.Fatalf("batched search on %s: %v", q.ID, err)
		}
		sres, err := search.BestFirst(q, sequential, opts)
		if err != nil {
			t.Fatalf("sequential search on %s: %v", q.ID, err)
		}
		if bres.Plan.Signature() != sres.Plan.Signature() {
			t.Errorf("query %s: plan signatures differ\nbatched:    %s\nsequential: %s",
				q.ID, bres.Plan.Signature(), sres.Plan.Signature())
		}
		if math.Abs(bres.Score-sres.Score) > 1e-9 {
			t.Errorf("query %s: scores differ: batched %v, sequential %v", q.ID, bres.Score, sres.Score)
		}
		if bres.Expansions != sres.Expansions || bres.Evaluations != sres.Evaluations {
			t.Errorf("query %s: effort differs: batched (%d, %d), sequential (%d, %d)",
				q.ID, bres.Expansions, bres.Evaluations, sres.Expansions, sres.Evaluations)
		}
	}
}

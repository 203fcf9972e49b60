package search

import (
	"testing"

	"neo/internal/datagen"
	"neo/internal/plan"
)

// recordingBatchScorer is a batch-native scorer that records the size of
// every ScoreBatch call, so tests can assert that the search really scores
// all children of an expansion in one call.
type recordingBatchScorer struct {
	batches []int
}

func (r *recordingBatchScorer) ScoreBatch(ps []*plan.Plan) []float64 {
	r.batches = append(r.batches, len(ps))
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = structuralScorer(p)
	}
	return out
}

// TestBestFirstBatchedMatchesSequential is the scorer-path parity test: a
// batch-native scorer and a per-plan ScorerFunc over the same cost model must
// drive BestFirst to the identical plan.
func TestBestFirstBatchedMatchesSequential(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()

	seq, err := BestFirst(q, ScorerFunc(structuralScorer), Options{Catalog: cat, MaxExpansions: 512})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBatchScorer{}
	bat, err := BestFirst(q, rec, Options{Catalog: cat, MaxExpansions: 512})
	if err != nil {
		t.Fatal(err)
	}

	if seq.Plan.Signature() != bat.Plan.Signature() {
		t.Errorf("plan signatures differ:\nsequential: %s\nbatched:    %s",
			seq.Plan.Signature(), bat.Plan.Signature())
	}
	if seq.Score != bat.Score {
		t.Errorf("scores differ: sequential %v, batched %v", seq.Score, bat.Score)
	}
	if seq.Expansions != bat.Expansions || seq.Evaluations != bat.Evaluations {
		t.Errorf("search effort differs: sequential (%d exp, %d evals), batched (%d exp, %d evals)",
			seq.Expansions, seq.Evaluations, bat.Expansions, bat.Evaluations)
	}

	// The hot path must batch: every multi-child expansion arrives as one
	// ScoreBatch call, so calls of size > 1 dominate.
	multi := 0
	total := 0
	for _, n := range rec.batches {
		total += n
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Errorf("no multi-plan ScoreBatch calls recorded (batch sizes: %v)", rec.batches)
	}
	if total != bat.Evaluations {
		t.Errorf("ScoreBatch scored %d plans but Evaluations reports %d", total, bat.Evaluations)
	}
}

// TestGreedyBatchedMatchesSequential checks the greedy path under both
// scorer contracts.
func TestGreedyBatchedMatchesSequential(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	seq, err := Greedy(q, ScorerFunc(structuralScorer), Options{Catalog: cat, MaxExpansions: 512})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := Greedy(q, &recordingBatchScorer{}, Options{Catalog: cat, MaxExpansions: 512})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Plan.Signature() != bat.Plan.Signature() || seq.Score != bat.Score {
		t.Errorf("greedy paths diverge: sequential (%s, %v), batched (%s, %v)",
			seq.Plan.Signature(), seq.Score, bat.Plan.Signature(), bat.Score)
	}
}

// TestGreedyDescendScoresCompleteStart guards the fix for greedyDescend
// returning score 0.0 when the starting plan needs no descent: the starting
// plan must be scored before the loop so Result.Score is meaningful.
func TestGreedyDescendScoresCompleteStart(t *testing.T) {
	cat := datagen.IMDBCatalog()
	q := fiveWayQuery()
	res, err := BestFirst(q, ScorerFunc(structuralScorer), Options{Catalog: cat, MaxExpansions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	complete := res.Plan
	if !complete.IsComplete() {
		t.Fatal("best-first did not return a complete plan")
	}
	got, score, evals, steps := greedyDescend(complete, newScoring(ScorerFunc(structuralScorer)), plan.ChildrenOptions{Catalog: cat})
	if got != complete {
		t.Fatalf("greedyDescend moved away from a complete plan")
	}
	if want := structuralScorer(complete); score != want {
		t.Errorf("greedyDescend score for complete start = %v, want %v", score, want)
	}
	if evals != 1 {
		t.Errorf("greedyDescend evals for complete start = %d, want 1", evals)
	}
	if steps != 0 {
		t.Errorf("greedyDescend steps for complete start = %d, want 0", steps)
	}
}

package neo

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"neo/internal/checkpoint"
	"neo/internal/treeconv"
)

// bootstrappedSystem assembles a small system and bootstraps it over a few
// workload queries so the network, experience, baselines and RNG stream all
// hold non-trivial state.
func bootstrappedSystem(t testing.TB, enc Encoding) (*System, []*Query) {
	t.Helper()
	sys := smallSystem(t, "imdb", "postgres", enc)
	wl, err := sys.GenerateWorkload(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bootstrap(wl.Queries[:4]); err != nil {
		t.Fatal(err)
	}
	return sys, wl.Queries
}

// TestCheckpointRoundTripBitIdenticalAcrossEncodings is the archetype
// headline: save -> load into a freshly opened system -> every value-network
// prediction and every chosen plan is bit-identical, for each featurization
// (including R-Vector, whose learned embedding travels in the checkpoint).
func TestCheckpointRoundTripBitIdenticalAcrossEncodings(t *testing.T) {
	for _, enc := range []Encoding{OneHot, Histogram, RVector} {
		t.Run(string(enc), func(t *testing.T) {
			sys1, queries := bootstrappedSystem(t, enc)
			var buf bytes.Buffer
			if err := sys1.SaveCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}

			sys2 := smallSystem(t, "imdb", "postgres", enc)
			if err := sys2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if got, want := sys2.Neo.NetVersion(), sys1.Neo.NetVersion(); got != want {
				t.Fatalf("restored net version %d, want %d", got, want)
			}
			if got, want := sys2.Neo.Experience.Len(), sys1.Neo.Experience.Len(); got != want {
				t.Fatalf("restored experience %d entries, want %d", got, want)
			}

			for _, q := range queries {
				// Raw network outputs over the same plan encodings must agree
				// bitwise.
				p, err := sys1.ExpertPlan(q)
				if err != nil {
					t.Fatal(err)
				}
				normalized := func(sys *System) float64 {
					return sys.Neo.Snapshot().PredictBatchNormalized([][]float64{sys.Neo.Featurizer.EncodeQuery(q)},
						[][]*treeconv.Tree{sys.Neo.Featurizer.EncodePlan(p)})[0]
				}
				a, b := normalized(sys1), normalized(sys2)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("query %s: prediction %v != %v after warm restart", q.ID, a, b)
				}
				// And the served plans must be identical.
				p1, r1, err := sys1.Optimize(q)
				if err != nil {
					t.Fatal(err)
				}
				p2, r2, err := sys2.Optimize(q)
				if err != nil {
					t.Fatal(err)
				}
				if p1.String() != p2.String() {
					t.Fatalf("query %s: warm restart served a different plan:\n  %s\n  %s", q.ID, p1, p2)
				}
				if math.Float64bits(r1.Score) != math.Float64bits(r2.Score) {
					t.Fatalf("query %s: plan scores differ: %v vs %v", q.ID, r1.Score, r2.Score)
				}
			}
		})
	}
}

// TestCheckpointResumedTrainingMatchesUninterrupted saves mid-trajectory,
// then retrains both the original system and a restored copy: the weights
// must agree to 1e-9 (they are bit-identical in practice — Adam moments,
// step count and the training RNG position all travel in the checkpoint).
func TestCheckpointResumedTrainingMatchesUninterrupted(t *testing.T) {
	sys1, _ := bootstrappedSystem(t, Histogram)
	var buf bytes.Buffer
	if err := sys1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	sys2 := smallSystem(t, "imdb", "postgres", Histogram)
	if err := sys2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	st1, st2 := sys1.Neo.State(), sys2.Neo.State()
	if st1.RNGSeed != st2.RNGSeed || st1.RNGDraws != st2.RNGDraws {
		t.Fatalf("RNG state (%d,%d) restored as (%d,%d)", st1.RNGSeed, st1.RNGDraws, st2.RNGSeed, st2.RNGDraws)
	}

	// Two further retraining rounds on each: the uninterrupted run and the
	// resumed run must follow the same trajectory.
	for round := 0; round < 2; round++ {
		loss1 := sys1.Neo.Retrain()
		loss2 := sys2.Neo.Retrain()
		if math.Abs(loss1-loss2) > 1e-9 {
			t.Fatalf("round %d: losses diverged: %v vs %v", round, loss1, loss2)
		}
	}
	p1, p2 := sys1.Neo.Net.Params(), sys2.Neo.Net.Params()
	for i := range p1 {
		for j := range p1[i].Value {
			if d := math.Abs(p1[i].Value[j] - p2[i].Value[j]); d > 1e-9 {
				t.Fatalf("weights diverged at %s[%d] by %g", p1[i].Name, j, d)
			}
		}
	}
	st1, st2 = sys1.Neo.State(), sys2.Neo.State()
	if st1.RNGSeed != st2.RNGSeed || st1.RNGDraws != st2.RNGDraws {
		t.Fatalf("RNG streams diverged: (%d,%d) vs (%d,%d)", st1.RNGSeed, st1.RNGDraws, st2.RNGSeed, st2.RNGDraws)
	}
}

func TestCheckpointFileRoundTripAndFailureModes(t *testing.T) {
	sys, _ := bootstrappedSystem(t, OneHot)
	dir := t.TempDir()
	path := filepath.Join(dir, "neo.ckpt")
	if err := sys.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	// No temp debris left behind by the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected exactly the checkpoint file, found %d entries", len(entries))
	}

	sys2 := smallSystem(t, "imdb", "postgres", OneHot)
	if err := sys2.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}

	// Garbage fails loudly with the bad-magic sentinel.
	garbage := filepath.Join(dir, "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sys2.LoadCheckpointFile(garbage); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}

	// A checkpoint from a different encoding is rejected with ErrMismatch
	// (OneHot and Histogram share network dimensions, so only the recorded
	// encoding distinguishes them).
	sysH := smallSystem(t, "imdb", "postgres", Histogram)
	if err := sysH.LoadCheckpointFile(path); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}

	// Truncation fails loudly too.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(trunc, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	sys3 := smallSystem(t, "imdb", "postgres", OneHot)
	if err := sys3.LoadCheckpointFile(trunc); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestCheckpointLoadResetsPlanCache ensures stale plans cannot survive a
// checkpoint load: entries cached before the load are dropped.
func TestCheckpointLoadResetsPlanCache(t *testing.T) {
	sys, queries := bootstrappedSystem(t, OneHot)
	var buf bytes.Buffer
	if err := sys.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	q := queries[0]
	if _, _, err := sys.Optimize(q); err != nil {
		t.Fatal(err)
	}
	if sys.PlanCacheStats().Size == 0 {
		t.Fatal("expected a cached plan before the load")
	}
	if err := sys.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := sys.PlanCacheStats().Size; got != 0 {
		t.Fatalf("plan cache holds %d entries after load, want 0", got)
	}
}

// TestCheckpointPrecisionIsSnapshotOnly asserts that the float32 panels a
// snapshot scores with never leak into the checkpoint container: a
// checkpoint restores the float64 master weights bit-identically, and the
// restored system packs its own panels from them.
func TestCheckpointPrecisionIsSnapshotOnly(t *testing.T) {
	src := smallSystem(t, "imdb", "postgres", Histogram)
	wl, err := src.GenerateWorkload(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Bootstrap(wl.Queries[:4]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	dst := smallSystem(t, "imdb", "postgres", Histogram)
	if err := dst.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	want, got := src.Neo.Net.Params(), dst.Neo.Net.Params()
	for i := range want {
		for j := range want[i].Value {
			if math.Float64bits(got[i].Value[j]) != math.Float64bits(want[i].Value[j]) {
				t.Fatalf("restored master weight %s[%d] = %v, want bit-identical %v",
					want[i].Name, j, got[i].Value[j], want[i].Value[j])
			}
		}
	}
	if got, want := dst.SnapshotInfo(), src.SnapshotInfo(); got != want || got.PanelBytes == 0 {
		t.Fatalf("restored snapshot %+v, source %+v", got, want)
	}
}

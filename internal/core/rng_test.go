package core

import (
	"math/rand"
	"testing"
	"time"
)

// TestRestoreSetsRNGPosition pins the training RNG's checkpointed state as a
// position, not a history: Restore of 2^40 draws — about an hour of replay
// at a few nanoseconds a draw — returns at once without building the stream,
// and State reads the position back unchanged. A reachable position resumes
// the seed's exact stream at the next draw.
func TestRestoreSetsRNGPosition(t *testing.T) {
	n := newRig(t, "postgres").neo
	st := n.State()
	st.RNGSeed, st.RNGDraws = 77, 1<<40
	done := make(chan struct{})
	go func() {
		n.Restore(st)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Restore of a 2^40-draw position has not returned after 10s: it replays the stream")
	}
	if n.rngSrc.src != nil {
		t.Fatal("Restore built the stream; only a draw may")
	}
	if got := n.State(); got.RNGSeed != 77 || got.RNGDraws != 1<<40 {
		t.Fatalf("State reads the RNG at (%d,%d), want (77,%d)", got.RNGSeed, got.RNGDraws, uint64(1<<40))
	}

	st.RNGDraws = 1000
	n.Restore(st)
	ref := rand.New(rand.NewSource(77))
	for range 1000 {
		ref.Uint64()
	}
	for i := range 8 {
		if got, want := n.rng.Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d after the restored position: %d, want %d", i, got, want)
		}
	}
	if got := n.State().RNGDraws; got != 1008 {
		t.Fatalf("State reads %d draws after 8 more, want 1008", got)
	}
}

package nn

import (
	"math/rand"
	"testing"
)

func randRows(rng *rand.Rand, rows, dim int) []float64 {
	xs := make([]float64, rows*dim)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestLinearForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lin := NewLinear(7, 5, rng)
	const rows = 9
	xs := randRows(rng, rows, 7)
	var arena Arena[float64]
	ys := lin.ForwardBatch(xs, rows, &arena)
	for r := 0; r < rows; r++ {
		want := lin.Forward(xs[r*7 : (r+1)*7])
		got := ys[r*5 : (r+1)*5]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d out %d: batch %v != per-sample %v", r, i, got[i], want[i])
			}
		}
	}
}

// TestMLPForwardBatchMatchesForward holds the training tape's batched
// forward pass to the per-sample Forward, bit for bit.
func TestMLPForwardBatchMatchesForward(t *testing.T) {
	for _, useNorm := range []bool{false, true} {
		rng := rand.New(rand.NewSource(2))
		mlp := NewMLP([]int{6, 12, 8, 3}, useNorm, rng)
		const rows = 11
		xs := randRows(rng, rows, 6)
		var arena Arena[float64]
		ys := mlp.ForwardBatchTape(xs, rows, &arena).Output()
		for r := 0; r < rows; r++ {
			want := mlp.Forward(xs[r*6 : (r+1)*6]).Output()
			got := ys[r*3 : (r+1)*3]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("norm=%v row %d out %d: batch %v != per-sample %v", useNorm, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestArenaReuseDoesNotAllocate runs the packed MLP, as a scorer runs its
// query tower and head, on a warmed-up arena.
func TestArenaReuseDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewMLPF32(NewMLP([]int{8, 16, 4}, true, rng))
	const rows = 16
	xs := toF32(randRows(rng, rows, 8))
	var arena Arena[float32]
	// Warm up: grows the arena to its steady-state size.
	mlp.ForwardBatch(xs, rows, &arena)
	arena.Reset()
	mlp.ForwardBatch(xs, rows, &arena)
	arena.Reset()
	allocs := testing.AllocsPerRun(50, func() {
		mlp.ForwardBatch(xs, rows, &arena)
		arena.Reset()
	})
	if allocs > 0 {
		t.Fatalf("warmed-up batched forward allocated %.1f times per run, want 0", allocs)
	}
}

func TestArenaOverflowSlicesStayValid(t *testing.T) {
	var arena Arena[float64]
	a := arena.Alloc(4) // overflow: arena starts empty
	for i := range a {
		a[i] = float64(i)
	}
	b := arena.Alloc(4)
	for i := range b {
		b[i] = float64(10 + i)
	}
	for i := range a {
		if a[i] != float64(i) || b[i] != float64(10+i) {
			t.Fatal("overflow allocation clobbered an earlier slice")
		}
	}
	arena.Reset()
	if got := arena.Alloc(8); len(got) != 8 {
		t.Fatalf("post-reset alloc length %d, want 8", len(got))
	}
}

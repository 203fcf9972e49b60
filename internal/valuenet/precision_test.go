package valuenet

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"neo/internal/treeconv"
)

// precisionFixture builds a lightly trained network plus a reference workload
// of (query, forest) pairs.
func precisionFixture(t *testing.T, seed int64) (*Network, [][]float64, [][]*treeconv.Tree, []Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const queryDim, planDim = 11, 7
	cfg := DefaultConfig()
	cfg.QueryLayers = []int{16, 8}
	cfg.TreeChannels = []int{12, 8}
	cfg.HeadLayers = []int{8}
	net := New(queryDim, planDim, cfg)

	var samples []Sample
	for i := 0; i < 24; i++ {
		q := make([]float64, queryDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		samples = append(samples, Sample{
			Query:  q,
			Plan:   []*treeconv.Tree{randomPlanTree(rng, 1+rng.Intn(6), planDim)},
			Target: 10 + rng.Float64()*1000,
		})
	}
	net.Train(samples, 2, 8, rng)

	queries := make([][]float64, len(samples))
	forests := make([][]*treeconv.Tree, len(samples))
	for i, s := range samples {
		queries[i] = s.Query
		forests[i] = s.Plan
	}
	return net, queries, forests, samples
}

func randomPlanTree(rng *rand.Rand, n, dim int) *treeconv.Tree {
	if n <= 0 {
		return nil
	}
	data := make([]float64, dim)
	for i := range data {
		data[i] = rng.Float64()
	}
	if n == 1 {
		return treeconv.NewLeaf(data)
	}
	nl := rng.Intn(n)
	return treeconv.NewNode(data, randomPlanTree(rng, nl, dim), randomPlanTree(rng, n-1-nl, dim))
}

// TestSnapshotFloat32Parity asserts the float32 snapshot scores within 1e-5
// relative of the float64 snapshot in normalised space, including batch=1.
func TestSnapshotFloat32Parity(t *testing.T) {
	net, queries, forests, _ := precisionFixture(t, 31)
	s64 := net.SnapshotPrecision(PrecisionFloat64)
	s32 := net.SnapshotPrecision(PrecisionFloat32)

	want := s64.PredictBatchNormalized(queries, forests)
	got := s32.PredictBatchNormalized(queries, forests)
	for i := range want {
		rel := math.Abs(got[i]-want[i]) / math.Max(1, math.Abs(want[i]))
		if rel > 1e-5 {
			t.Fatalf("f32 normalised[%d] = %v want %v (rel err %g)", i, got[i], want[i], rel)
		}
	}

	// Batch of one and the single-pair entry point agree with the batch.
	one := s32.PredictBatchNormalized(queries[:1], forests[:1])
	if one[0] != got[0] {
		t.Fatalf("batch=1 diverges: %v vs %v", one[0], got[0])
	}
	// Denormalized predictions pass through the same float64 output boundary.
	if p, b := s32.Predict(queries[0], forests[0]), s32.PredictBatch(queries[:1], forests[:1])[0]; p != b {
		t.Fatalf("Predict/PredictBatch diverge: %v vs %v", p, b)
	}
}

// TestSnapshotInfo asserts the footprint report: float64 has no panels,
// float32 panels cost ≈4 bytes/param plus padding.
func TestSnapshotInfo(t *testing.T) {
	net, _, _, _ := precisionFixture(t, 34)
	i64 := net.SnapshotPrecision(PrecisionFloat64).Info()
	i32 := net.SnapshotPrecision(PrecisionFloat32).Info()

	if i64.Precision != "float64" || i32.Precision != "float32" {
		t.Fatalf("precisions = %q/%q", i64.Precision, i32.Precision)
	}
	if i64.Parameters != net.NumParameters() || i64.ParamBytes != 8*net.NumParameters() {
		t.Fatalf("param accounting wrong: %+v", i64)
	}
	if i64.PanelBytes != 0 {
		t.Fatalf("float64 snapshot has panel bytes: %d", i64.PanelBytes)
	}
	if i32.PanelBytes < 4*net.NumParameters() {
		t.Fatalf("float32 panels (%d B) smaller than 4 B/param over %d params", i32.PanelBytes, net.NumParameters())
	}
}

// TestParsePrecision pins the accepted spellings and that anything else —
// the removed int8 mode included — is rejected with an error naming the two
// supported values.
func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", PrecisionFloat64, true},
		{"float64", PrecisionFloat64, true},
		{"f64", PrecisionFloat64, true},
		{"float32", PrecisionFloat32, true},
		{"f32", PrecisionFloat32, true},
		{"int8", 0, false},
		{"i8", 0, false},
		{"float16", 0, false},
		{"Float32", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
			}
			if back, err := ParsePrecision(got.String()); err != nil || back != got {
				t.Errorf("%v.String() = %q does not parse back: %v, %v", got, got.String(), back, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParsePrecision(%q) accepted, want an error", c.in)
			continue
		}
		for _, name := range []string{"float64", "float32"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParsePrecision(%q) error %q does not name %s", c.in, err, name)
			}
		}
	}
}

// TestSnapshotFloat32Concurrent hammers one shared float32 snapshot from many
// goroutines (run under -race in CI) and checks every caller sees identical
// scores.
func TestSnapshotFloat32Concurrent(t *testing.T) {
	net, queries, forests, _ := precisionFixture(t, 35)
	s32 := net.SnapshotPrecision(PrecisionFloat32)
	want := s32.PredictBatchNormalized(queries, forests)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got := s32.PredictBatchNormalized(queries, forests)
				for i := range want {
					if got[i] != want[i] {
						errs <- "concurrent PredictBatch diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

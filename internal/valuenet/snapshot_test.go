package valuenet

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"neo/internal/nn"
	"neo/internal/reftest"
)

func snapshotTestNetwork() (*Network, []float64, []*reftest.Tree) {
	cfg := Config{
		QueryLayers:  []int{8, 4},
		TreeChannels: []int{8, 4},
		HeadLayers:   []int{4},
		LearningRate: 1e-2,
		UseLayerNorm: true,
		Seed:         11,
	}
	net := New(3, 5, cfg)
	q := []float64{0.2, -0.4, 0.9}
	leaf := func(seed float64) *reftest.Tree {
		return reftest.Leaf([]float64{seed, seed * 0.5, -seed, 0.1, 0.3})
	}
	trees := []*reftest.Tree{reftest.Join([]float64{1, 0, 0.5, -0.2, 0.7}, leaf(0.3), leaf(-0.6))}
	return net, q, trees
}

// TestSnapshotIsImmutableUnderTraining is the double-buffering contract: a
// snapshot keeps scoring with the weights it was frozen with, no matter how
// much the live network trains afterwards.
func TestSnapshotIsImmutableUnderTraining(t *testing.T) {
	net, q, trees := snapshotTestNetwork()
	snap := net.Snapshot()

	var ids reftest.IDs
	predict := func() float64 { return snap.NewScorer(q, &ids).Score(ids.Forests([][]*reftest.Tree{trees}))[0] }
	before := predict()
	beforeNorm := scoreFresh(snap, [][]float64{q}, [][]*reftest.Tree{trees})[0]
	if live := net.refPredictNormalized(q, trees); relErr(beforeNorm, live) > 1e-5 {
		t.Fatalf("fresh snapshot should match the live network: snap %v, live %v", beforeNorm, live)
	}

	samples := []Sample{
		refSample(&ids, q, trees, 1200),
		refSample(&ids, []float64{1, 1, 1}, trees, 40),
	}
	rng := rand.New(rand.NewSource(5))
	net.Train(samples, 20, 2, rng)

	if after := net.refPredict(q, trees); after == before {
		t.Errorf("training should have changed the live network's prediction (stayed %v)", after)
	}
	if got := predict(); got != before {
		t.Errorf("snapshot prediction changed under training: %v -> %v", before, got)
	}
	if got := scoreFresh(snap, [][]float64{q}, [][]*reftest.Tree{trees})[0]; got != beforeNorm {
		t.Errorf("snapshot normalized prediction changed under training: %v -> %v", beforeNorm, got)
	}
	batch := snap.NewScorer(q, &ids).Score(ids.Forests([][]*reftest.Tree{trees, trees}))
	if len(batch) != 2 || batch[0] != before || batch[1] != before {
		t.Errorf("snapshot batch path should match its per-sample path: %v, want %v", batch, before)
	}
}

// TestCloneIsDeepAndEquivalent checks that a trainable clone predicts
// identically but shares no parameter storage with the original.
func TestCloneIsDeepAndEquivalent(t *testing.T) {
	net, q, trees := snapshotTestNetwork()
	clone := net.CloneTrainable()
	if clone.NumParameters() != net.NumParameters() {
		t.Fatalf("clone has %d parameters, original %d", clone.NumParameters(), net.NumParameters())
	}
	if a, b := net.refPredict(q, trees), clone.refPredict(q, trees); a != b {
		t.Fatalf("clone predicts %v, original %v", b, a)
	}
	// Mutating the original must not leak into the clone.
	orig := net.Params()
	before := clone.refPredict(q, trees)
	for _, p := range orig {
		for i := range p.Value {
			p.Value[i] += 0.1
		}
	}
	if got := clone.refPredict(q, trees); got != before {
		t.Errorf("clone shares storage with the original: %v -> %v", before, got)
	}
}

// TestSnapshotKeepsNoTrainableState pins what a snapshot is: its packed
// panels and a few scalars. No type it reaches holds a Network, a Param or
// float64 storage, and taking one allocates little beyond the panels — not
// the copy of weights, gradients and optimizer a trainable network would be.
func TestSnapshotKeepsNoTrainableState(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch {
		case typ == reflect.TypeOf(Network{}), typ == reflect.TypeOf(nn.Param{}),
			typ == reflect.TypeOf([]float64(nil)):
			t.Errorf("Snapshot reaches %v through %s", typ, path)
		case typ.Kind() == reflect.Pointer, typ.Kind() == reflect.Slice, typ.Kind() == reflect.Array:
			walk(typ.Elem(), path+"[]")
		case typ.Kind() == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case typ.Kind() == reflect.Map, typ.Kind() == reflect.Interface, typ.Kind() == reflect.Func, typ.Kind() == reflect.Chan:
			t.Errorf("Snapshot reaches %v through %s, which this walk cannot see into", typ, path)
		}
	}
	walk(reflect.TypeOf(Snapshot{}), "Snapshot")

	net := New(120, 30, DefaultConfig())
	panels := net.Snapshot().Info().PanelBytes
	const calls, slack = 8, 16 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		net.Snapshot()
	}
	runtime.ReadMemStats(&after)
	if per := int(after.TotalAlloc-before.TotalAlloc) / calls; per > panels+slack {
		t.Errorf("Snapshot allocates %d B per call for %d B of panels (%d parameters): more than %d B of slack",
			per, panels, net.NumParameters(), slack)
	} else {
		t.Logf("Snapshot allocates %d B per call for %d B of panels", per, panels)
	}
}

package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"neo/internal/core"
	"neo/internal/embedding"
	"neo/internal/nn"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/storage"
	"neo/internal/treeconv"
	"neo/internal/valuenet"
)

const queryDim, planDim = 12, 9

func smallNetConfig(seed int64) valuenet.Config {
	return valuenet.Config{
		QueryLayers:  []int{8, 4},
		TreeChannels: []int{6, 4},
		HeadLayers:   []int{4},
		LearningRate: 1e-3,
		UseLayerNorm: true,
		Seed:         seed,
	}
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// forests is an id space of plan trees (treeconv.Nodes), numbered children
// first. The zero value is empty.
type forests struct {
	rows        [][]float64
	left, right []int32
}

// Node implements treeconv.Nodes.
func (f *forests) Node(id int32) (row []float64, left, right int32) {
	return f.rows[id], f.left[id], f.right[id]
}

func (f *forests) add(row []float64, left, right int32) int32 {
	f.rows, f.left, f.right = append(f.rows, row), append(f.left, left), append(f.right, right)
	return int32(len(f.rows) - 1)
}

// random adds a random five-node tree — a join over a leaf and a join of two
// leaves — and returns the one-root forest of it.
func (f *forests) random(rng *rand.Rand) []int32 {
	root, l1, inner, l2, l3 := randVec(rng, planDim), randVec(rng, planDim), randVec(rng, planDim), randVec(rng, planDim), randVec(rng, planDim)
	j := f.add(inner, f.add(l2, -1, -1), f.add(l3, -1, -1))
	return []int32{f.add(root, f.add(l1, -1, -1), j)}
}

// sample is a training sample of a random tree under a random query vector.
func (f *forests) sample(rng *rand.Rand) valuenet.Sample {
	q := randVec(rng, queryDim)
	return valuenet.Sample{Query: q, Nodes: f, Roots: f.random(rng), Target: math.Exp(rng.Float64() * 6)}
}

// trainedNet builds a network and takes a few optimizer steps so the Adam
// moments and target transform are non-trivial.
func trainedNet(t testing.TB, seed int64) *valuenet.Network {
	t.Helper()
	net := valuenet.New(queryDim, planDim, smallNetConfig(seed))
	rng := rand.New(rand.NewSource(7))
	var fs forests
	var samples []valuenet.Sample
	for i := 0; i < 8; i++ {
		samples = append(samples, fs.sample(rng))
	}
	costs := make([]float64, len(samples))
	for i, s := range samples {
		costs[i] = s.Target
	}
	net.FitTargetTransform(costs)
	for i := 0; i < 3; i++ {
		net.TrainBatch(samples)
	}
	return net
}

func TestMLPSaveLoadBitIdentical(t *testing.T) {
	src := nn.NewMLP([]int{6, 8, 3}, true, rand.New(rand.NewSource(1)))
	dst := nn.NewMLP([]int{6, 8, 3}, true, rand.New(rand.NewSource(99)))
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].Value {
			if sp[i].Value[j] != dp[i].Value[j] {
				t.Fatalf("param %s[%d] differs after round trip", sp[i].Name, j)
			}
		}
	}
}

func TestMLPLoadRejectsArchitectureMismatch(t *testing.T) {
	src := nn.NewMLP([]int{6, 8, 3}, true, rand.New(rand.NewSource(1)))
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := nn.NewMLP([]int{6, 7, 3}, true, rand.New(rand.NewSource(1)))
	if err := nn.LoadParams(&buf, dst.Params()); err == nil {
		t.Fatal("loading a 6-8-3 MLP into a 6-7-3 MLP should fail")
	}
}

func TestTreeconvStackSaveLoadBitIdentical(t *testing.T) {
	src := treeconv.NewStack([]int{5, 7, 3}, rand.New(rand.NewSource(2)))
	dst := treeconv.NewStack([]int{5, 7, 3}, rand.New(rand.NewSource(77)))
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].Value {
			if sp[i].Value[j] != dp[i].Value[j] {
				t.Fatalf("param %s[%d] differs after round trip", sp[i].Name, j)
			}
		}
	}
}

func TestNetworkSaveLoadPredictsBitIdentical(t *testing.T) {
	src := trainedNet(t, 3)
	dst := valuenet.New(queryDim, planDim, smallNetConfig(31)) // different init
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	requireSameNetwork(t, src, dst, rand.New(rand.NewSource(11)), 16)
}

// requireSameNetwork fails unless a and b hold bit-identical target
// transforms and parameters, and their snapshots predict bit-identically on
// pairs random (query, forest) pairs drawn from rng.
func requireSameNetwork(t *testing.T, a, b *valuenet.Network, rng *rand.Rand, pairs int) {
	t.Helper()
	am, as := a.TargetTransform()
	bm, bs := b.TargetTransform()
	if math.Float64bits(am) != math.Float64bits(bm) || math.Float64bits(as) != math.Float64bits(bs) {
		t.Fatalf("target transform differs after round trip: (%v, %v) vs (%v, %v)", am, as, bm, bs)
	}
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].Value {
			if math.Float64bits(ap[i].Value[j]) != math.Float64bits(bp[i].Value[j]) {
				t.Fatalf("param %s[%d] differs after round trip", ap[i].Name, j)
			}
		}
	}
	snapA, snapB := a.Snapshot(), b.Snapshot()
	var fs forests
	for i := 0; i < pairs; i++ {
		q := randVec(rng, queryDim)
		forest := [][]int32{fs.random(rng)}
		pa, pb := snapA.NewScorer(q, &fs).Score(forest)[0], snapB.NewScorer(q, &fs).Score(forest)[0]
		if math.Float64bits(pa) != math.Float64bits(pb) {
			t.Fatalf("prediction %d differs after round trip: %v vs %v", i, pa, pb)
		}
	}
}

// TestNetworkSaveLoadResumesOptimizerTrajectory verifies the Adam state round
// trip: training the restored network must produce bit-identical weights to
// continuing the original, which only holds if step count and both moment
// vectors survived.
func TestNetworkSaveLoadResumesOptimizerTrajectory(t *testing.T) {
	src := trainedNet(t, 5)
	dst := valuenet.New(queryDim, planDim, smallNetConfig(50))
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	var fs forests
	var samples []valuenet.Sample
	for i := 0; i < 8; i++ {
		samples = append(samples, fs.sample(rng))
	}
	for step := 0; step < 3; step++ {
		src.TrainBatch(samples)
		dst.TrainBatch(samples)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].Value {
			if sp[i].Value[j] != dp[i].Value[j] {
				t.Fatalf("resumed training diverged at %s[%d]: %v vs %v",
					sp[i].Name, j, sp[i].Value[j], dp[i].Value[j])
			}
		}
	}
}

func testQuery(id string) *query.Query {
	return query.New(id,
		[]string{"a", "b"},
		[]query.JoinPredicate{{LeftTable: "a", LeftColumn: "id", RightTable: "b", RightColumn: "a_id"}},
		[]query.Predicate{
			{Table: "a", Column: "name", Op: query.Like, Value: storage.StringValue("x|weird\"chars")},
			{Table: "b", Column: "year", Op: query.Ge, Value: storage.IntValue(1990)},
		})
}

func testState(t testing.TB) *State {
	t.Helper()
	q1, q2 := testQuery("q1"), testQuery("q2")
	p1 := &plan.Plan{Query: q1, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin, plan.Leaf("a", plan.TableScan), plan.Leaf("b", plan.IndexScan)),
	}}
	p2 := &plan.Plan{Query: q2, Roots: []*plan.Node{
		plan.Join2(plan.MergeJoin, plan.Leaf("b", plan.TableScan), plan.Leaf("a", plan.TableScan)),
	}}
	emb := embedding.Train([][]string{
		{"a.name=x", "a.name=y", "b.year=1990"},
		{"a.name=x", "b.year=2000"},
	}, embedding.Config{Dim: 4, Seed: 9})
	return &State{
		Encoding:  "r-vector",
		Embedding: emb,
		State: core.State{
			NetVersion: 7,
			RNGSeed:    42,
			RNGDraws:   12345,
			TrainTime:  3 * time.Second,
			Net:        trainedNet(t, 21),
			Experience: []core.Entry{
				{Query: q1, Plan: p1, Latency: 12.5},
				{Query: q1, Plan: p1, Latency: 11.25},
				{Query: q2, Plan: p2, Latency: 99},
			},
			Baselines: map[string]float64{"q1": 13, "q2": 101, "held-out": 55},
		},
	}
}

// load decodes data for a receiver of the test dimensions and architecture.
func load(data []byte, wantEncoding string) (*State, error) {
	return Load(bytes.NewReader(data), queryDim, planDim, smallNetConfig(1), wantEncoding)
}

func TestCheckpointRoundTrip(t *testing.T) {
	st := testState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := load(buf.Bytes(), "r-vector")
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoding != st.Encoding || got.NetVersion != st.NetVersion ||
		got.RNGSeed != st.RNGSeed || got.RNGDraws != st.RNGDraws || got.TrainTime != st.TrainTime {
		t.Fatalf("meta mismatch: %+v", got)
	}
	// Network predicts bit-identically.
	requireSameNetwork(t, st.Net, got.Net, rand.New(rand.NewSource(1)), 1)
	// Experience round-trips, with the shared query deduplicated to one
	// pointer.
	if len(got.Experience) != 3 {
		t.Fatalf("got %d entries, want 3", len(got.Experience))
	}
	for i, e := range st.Experience {
		g := got.Experience[i]
		if g.Query.ID != e.Query.ID || g.Latency != e.Latency ||
			g.Plan.Signature() != e.Plan.Signature() {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, g, e)
		}
		if g.Query.Signature() != e.Query.Signature() {
			t.Fatalf("entry %d query signature mismatch", i)
		}
	}
	if got.Experience[0].Query != got.Experience[1].Query {
		t.Fatal("entries of the same query should share one restored *Query")
	}
	if got.Experience[0].Plan.Query != got.Experience[0].Query {
		t.Fatal("restored plan should point at its restored query")
	}
	// Baselines, including IDs outside the experience.
	if len(got.Baselines) != 3 || got.Baselines["held-out"] != 55 || got.Baselines["q1"] != 13 {
		t.Fatalf("baselines mismatch: %v", got.Baselines)
	}
	// Embedding vectors round-trip bitwise.
	for _, tok := range []string{"a.name=x", "b.year=1990"} {
		want, ok1 := st.Embedding.Vector(tok)
		have, ok2 := got.Embedding.Vector(tok)
		if !ok1 || !ok2 {
			t.Fatalf("token %q missing after round trip", tok)
		}
		for d := range want {
			if want[d] != have[d] {
				t.Fatalf("embedding %q[%d] differs", tok, d)
			}
		}
	}
	if got.Embedding.Count("a.name=x") != st.Embedding.Count("a.name=x") {
		t.Fatal("embedding counts differ after round trip")
	}
}

// TestCheckpointLoadsAnyDrawCount: the meta section's (seed, draws) is a
// position a loader hands on, not a history it replays, so no draw count is
// implausible — a container at 2^40 draws loads and re-encodes byte for byte.
func TestCheckpointLoadsAnyDrawCount(t *testing.T) {
	st := testState(t)
	st.RNGDraws = 1 << 40
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := load(buf.Bytes(), "r-vector")
	if err != nil {
		t.Fatal(err)
	}
	if got.RNGSeed != st.RNGSeed || got.RNGDraws != st.RNGDraws {
		t.Fatalf("RNG position (%d,%d) loaded as (%d,%d)", st.RNGSeed, st.RNGDraws, got.RNGSeed, got.RNGDraws)
	}
	var again bytes.Buffer
	if err := Save(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatalf("re-encoded checkpoint differs (%d vs %d bytes)", again.Len(), buf.Len())
	}
}

func TestCheckpointBadMagic(t *testing.T) {
	_, err := load([]byte("NOTACKPTxxxxxxxxxxx"), "")
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCheckpointUnsupportedVersion(t *testing.T) {
	st := testState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(Magic)] = 0xEE // format version field (little-endian low byte)
	_, err := load(data, "")
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("err = %v, want ErrUnsupportedVersion", err)
	}
}

func TestCheckpointTruncated(t *testing.T) {
	st := testState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, len(data) / 2, len(data) - 1} {
		_, err := load(data[:cut], "")
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestCheckpointCorrupt(t *testing.T) {
	st := testState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF // flip a payload byte
	_, err := load(data, "")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointArchitectureMismatch(t *testing.T) {
	st := testState(t)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	cfg := smallNetConfig(1)
	cfg.TreeChannels = []int{6, 5} // different conv width
	_, err := Load(bytes.NewReader(buf.Bytes()), queryDim, planDim, cfg, "")
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	// Different input dimensions too.
	_, err = Load(bytes.NewReader(buf.Bytes()), queryDim+1, planDim, smallNetConfig(1), "")
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

// TestGoldenParentCheckpointReencodes pins the codec against a file written
// before Load stopped decoding into a caller's network (pkg/neo's
// TestGoldenParentCheckpoint restores the same file into a system): it
// decodes into a fresh network of the dimensions it names, and encoding the
// decoded state reproduces it byte for byte.
func TestGoldenParentCheckpointReencodes(t *testing.T) {
	golden, err := os.ReadFile("testdata/parent-1hot.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := valuenet.Config{QueryLayers: []int{8, 4}, TreeChannels: []int{4, 4}, HeadLayers: []int{4}, LearningRate: 2e-3, UseLayerNorm: true, Seed: 3}
	st, err := Load(bytes.NewReader(golden), 65, 23, cfg, "1-hot")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("re-encoded checkpoint differs from the golden bytes (%d vs %d bytes)", buf.Len(), len(golden))
	}
}

package neo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"os"
	"slices"
	"testing"

	"neo/internal/checkpoint"
)

// containerSection is one named payload of a NEOCKPT1 container (FORMAT.md),
// parsed here by hand so a test can cut, damage and drop sections.
type containerSection struct {
	name    string
	payload []byte
}

// splitContainer parses a well-formed container and also returns the offset
// its first payload starts at.
func splitContainer(t *testing.T, data []byte) (secs []containerSection, payloadStart int) {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[12:]))
	off := 16
	sizes := make([]int, count)
	for i := range sizes {
		nameLen := int(data[off])<<8 | int(data[off+1])
		secs = append(secs, containerSection{name: string(data[off+2 : off+2+nameLen])})
		off += 2 + nameLen
		sizes[i] = int(binary.LittleEndian.Uint64(data[off:]))
		off += 8 + 4
	}
	payloadStart = off
	for i := range secs {
		secs[i].payload = data[off : off+sizes[i]]
		off += sizes[i]
	}
	if off != len(data) {
		t.Fatalf("container is %d bytes, its table accounts for %d", len(data), off)
	}
	return secs, payloadStart
}

// joinContainer writes sections back under correct lengths and CRCs.
func joinContainer(secs []containerSection) []byte {
	out := []byte(checkpoint.Magic)
	out = binary.LittleEndian.AppendUint32(out, checkpoint.FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(secs)))
	for _, s := range secs {
		out = append(out, byte(len(s.name)>>8), byte(len(s.name)))
		out = append(out, s.name...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.payload))
	}
	for _, s := range secs {
		out = append(out, s.payload...)
	}
	return out
}

// TestFailedLoadChangesNothing is the unit-level form of a truncated or
// damaged snapshot download: whatever is wrong with the container — cut at
// any section boundary, a flipped payload byte, another encoding, another
// architecture, no net section — LoadCheckpoint fails with the right sentinel
// and the system is exactly as it was: same version, same network (pointer
// and weights), same experience, RNG position, baselines and plan cache.
func TestFailedLoadChangesNothing(t *testing.T) {
	sys, queries := bootstrappedSystem(t, OneHot)
	if _, _, err := sys.Optimize(queries[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	secs, payloadStart := splitContainer(t, good)

	type damaged struct {
		data []byte
		want error
	}
	cases := map[string]damaged{}
	cut := payloadStart
	for _, s := range secs {
		cases["truncated before "+s.name] = damaged{good[:cut], checkpoint.ErrTruncated}
		cut += len(s.payload)
	}
	flipped := bytes.Clone(good)
	flipped[payloadStart+len(secs[0].payload)+len(secs[1].payload)/2] ^= 0x01
	cases["flipped net byte"] = damaged{flipped, checkpoint.ErrCorrupt}

	foreign := func(cfg Config) []byte {
		other, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		var buf bytes.Buffer
		if err := other.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	histogram := sys.Config
	histogram.Encoding = Histogram // same dimensions as 1-hot: only the recorded encoding differs
	cases["wrong encoding"] = damaged{foreign(histogram), checkpoint.ErrMismatch}
	wider := sys.Config
	wider.ValueNet = &ValueNetConfig{QueryLayers: []int{16, 8}, TreeChannels: []int{8, 6}, HeadLayers: []int{8}, LearningRate: 2e-3, UseLayerNorm: true, Seed: 3}
	cases["wrong architecture"] = damaged{foreign(wider), checkpoint.ErrMismatch}
	cases["missing net section"] = damaged{joinContainer(slices.DeleteFunc(slices.Clone(secs), func(s containerSection) bool { return s.name == "net" })), checkpoint.ErrMissingSection}

	net, weights := sys.Neo.Net, flatParams(sys)
	before, cache := sys.Neo.State(), sys.PlanCacheStats()
	if cache.Size == 0 || len(before.Experience) == 0 || len(before.Baselines) == 0 || before.RNGDraws == 0 {
		t.Fatalf("test setup: state too trivial to notice a change: cache %+v, %d entries, %d baselines, %d draws",
			cache, len(before.Experience), len(before.Baselines), before.RNGDraws)
	}
	for name, c := range cases {
		if err := sys.LoadCheckpoint(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
		after := sys.Neo.State()
		switch {
		case after.NetVersion != before.NetVersion:
			t.Errorf("%s: version %d -> %d", name, before.NetVersion, after.NetVersion)
		case sys.Neo.Net != net || !slices.Equal(flatParams(sys), weights):
			t.Errorf("%s: the live network was replaced or written", name)
		case len(after.Experience) != len(before.Experience):
			t.Errorf("%s: experience %d -> %d entries", name, len(before.Experience), len(after.Experience))
		case after.RNGSeed != before.RNGSeed || after.RNGDraws != before.RNGDraws:
			t.Errorf("%s: RNG (%d,%d) -> (%d,%d)", name, before.RNGSeed, before.RNGDraws, after.RNGSeed, after.RNGDraws)
		case !maps.Equal(after.Baselines, before.Baselines):
			t.Errorf("%s: baselines changed", name)
		case sys.PlanCacheStats().Size != cache.Size:
			t.Errorf("%s: plan cache %d -> %d entries", name, cache.Size, sys.PlanCacheStats().Size)
		}
	}
	// The undamaged container still loads — the cases above failed for the
	// reason they name.
	if err := sys.LoadCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	if sys.Neo.Net == net || sys.PlanCacheStats().Size != 0 {
		t.Error("a successful load must replace the network pointer and start from an empty plan cache")
	}
}

// flatParams copies every weight of the system's live network.
func flatParams(sys *System) []float64 {
	var out []float64
	for _, p := range sys.Neo.Net.Params() {
		out = append(out, p.Value...)
	}
	return out
}

// TestForeignEmbeddingIsAMismatch: the row-vector embedding is a pure
// function of the configuration — two Opens train identical vectors, which
// is why the R-Vector round trip loads at all — so a checkpoint carrying
// other vectors comes from another configuration. It is refused, and the
// featurizer's embedding is never written after Open.
func TestForeignEmbeddingIsAMismatch(t *testing.T) {
	sys := smallSystem(t, "imdb", "postgres", RVector)
	cfg := sys.Config
	cfg.Seed++ // another database, hence other vectors; same dimensions
	other, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := other.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	emb := sys.Featurizer.Embedding
	if err := sys.LoadCheckpoint(&buf); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	if sys.Featurizer.Embedding != emb {
		t.Fatal("a refused load replaced the embedding")
	}
}

// TestGoldenParentCheckpoint pins format stability across the State/Restore
// refactor: a checkpoint written by the commit before it (1-hot, tiny value
// network, one bootstrap and one episode) loads, restores the state it names,
// and saving the restored system reproduces the file byte for byte.
func TestGoldenParentCheckpoint(t *testing.T) {
	golden, err := os.ReadFile("../../internal/checkpoint/testdata/parent-1hot.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(Config{
		Dataset: "imdb", Engine: "postgres", Encoding: OneHot, Scale: 0.15, Seed: 7,
		SearchExpansions: 16, Episodes: 1,
		ValueNet: &ValueNetConfig{
			QueryLayers: []int{8, 4}, TreeChannels: []int{4, 4}, HeadLayers: []int{4},
			LearningRate: 2e-3, UseLayerNorm: true, Seed: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.LoadCheckpoint(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	if v, n := sys.Neo.NetVersion(), sys.Neo.Experience.Len(); v != 3 || n != 16 {
		t.Fatalf("restored version %d with %d entries, the parent wrote version 3 with 16", v, n)
	}
	var buf bytes.Buffer
	if err := sys.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("re-saved checkpoint differs from the parent's bytes (%d vs %d bytes)", buf.Len(), len(golden))
	}
}

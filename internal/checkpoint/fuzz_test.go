package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"neo/internal/core"
	"neo/internal/plan"
)

// sentinels are the errors a loader may fail with; anything else is a codec
// error that escaped unclassified.
var sentinels = []error{ErrBadMagic, ErrUnsupportedVersion, ErrTruncated, ErrCorrupt, ErrMissingSection, ErrMismatch}

// checkDecode feeds one body to both loaders: neither may panic, a failure
// must wrap a package sentinel, every latency and baseline that decodes is
// finite and non-negative, and — TestHeaderOnlyContainerAllocatesNothing's
// accounting, for every input — what they allocate is bounded by the bytes
// they were given (plus the receiver's own fresh network), never by a length
// the body merely declares.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := load(data, "")
	entries, expErr := LoadExperience(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	for _, e := range []error{err, expErr} {
		if e != nil && !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(e, s) }) {
			t.Fatalf("error wraps no package sentinel: %v", e)
		}
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); grew > limit {
		t.Fatalf("a %d-byte body made the loaders allocate %d bytes (limit %d)", len(data), grew, limit)
	}
	// Every latency that decodes is fit to be a training target.
	usable := func(what string, v float64) {
		t.Helper()
		if !(v >= 0) || math.IsInf(v, 1) {
			t.Fatalf("decoded %s %v is not a finite non-negative number", what, v)
		}
	}
	// Every entry that decodes holds a plan Neo could have executed: one
	// tree of known join operators over table and index scans of exactly
	// its query's relations.
	executable := func(e core.Entry) {
		t.Helper()
		ok := len(e.Plan.Roots) == 1
		var tables []string
		for _, r := range e.Plan.Roots {
			r.Walk(func(n *plan.Node) {
				if n.IsLeaf() {
					tables = append(tables, n.Table)
					ok = ok && (n.Scan == plan.TableScan || n.Scan == plan.IndexScan)
				} else {
					ok = ok && n.Join >= 0 && n.Join < plan.NumJoinOps
				}
			})
		}
		slices.Sort(tables)
		if !ok || !slices.Equal(tables, e.Query.Relations) {
			t.Fatalf("decoded plan %s is not one complete plan over query %q's relations %v", e.Plan, e.Query.ID, e.Query.Relations)
		}
	}
	for _, e := range entries {
		usable("latency", e.Latency)
		executable(e)
	}
	if err == nil {
		for _, e := range st.Experience {
			usable("latency", e.Latency)
			executable(e)
		}
		for _, b := range st.Baselines {
			usable("baseline", b)
		}
		// Whatever decodes must encode again: the state is complete.
		if err := Save(&bytes.Buffer{}, st); err != nil {
			t.Fatalf("re-saving a loaded state: %v", err)
		}
	}
}

// reframe returns base with the payload of the section the selector picks
// replaced by payload, under a correct length and CRC — so mutated bytes
// reach the section codecs instead of dying at the checksum.
func reframe(base []section, selector byte, payload []byte) []byte {
	secs := append([]section(nil), base...)
	secs[int(selector)%len(secs)].payload = payload
	var buf bytes.Buffer
	if err := writeContainer(&buf, secs); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzLoad throws arbitrary bytes at the container reader and, re-framed
// under valid checksums, at every section codec (meta, net, embedding,
// experience) — the decoders a replica runs on whatever its trainer URL
// serves and a trainer on every POST /experience body.
func FuzzLoad(f *testing.F) {
	var full, exp bytes.Buffer
	st := testState(f)
	if err := Save(&full, st); err != nil {
		f.Fatal(err)
	}
	if err := SaveExperience(&exp, st.Experience); err != nil {
		f.Fatal(err)
	}
	data := full.Bytes()
	secs, err := readContainer(bytes.NewReader(data))
	if err != nil {
		f.Fatal(err)
	}
	var base []section
	for _, name := range []string{sectionMeta, sectionNet, sectionEmbedding, sectionExperience} {
		base = append(base, section{name: name, payload: secs[name]})
	}

	f.Add(data)
	f.Add(exp.Bytes())
	if golden, err := os.ReadFile("testdata/parent-1hot.ckpt"); err == nil {
		f.Add(golden)
	}
	// The damaged variants TestCheckpointTruncated / Corrupt /
	// UnsupportedVersion build.
	for _, cut := range []int{4, len(data) / 2, len(data) - 1} {
		f.Add(data[:cut])
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	skewed := bytes.Clone(data)
	skewed[len(Magic)] = 0xEE
	f.Add(skewed)
	// One well-formed payload per section, behind its selector byte.
	for i, s := range base {
		f.Add(append([]byte{byte(i)}, s.payload...))
	}
	// A CRC-valid batch carrying a NaN latency.
	poisoned := slices.Clone(st.Experience)
	poisoned[0].Latency = math.NaN()
	var bad bytes.Buffer
	if err := SaveExperience(&bad, poisoned); err != nil {
		f.Fatal(err)
	}
	f.Add(bad.Bytes())
	// A training-RNG position no replay could reach: a loader only sets it.
	far := *st
	far.RNGDraws = 1 << 63
	var farBuf bytes.Buffer
	if err := Save(&farBuf, &far); err != nil {
		f.Fatal(err)
	}
	f.Add(farBuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) > 0 {
			checkDecode(t, reframe(base, data[0], data[1:]))
		}
	})
}

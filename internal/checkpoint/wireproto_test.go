package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"neo/internal/core"
	"neo/internal/plan"
	"neo/internal/wire"
)

// TestExperienceContainerRoundTrip pins the replica→trainer wire artifact:
// a stand-alone experience container round-trips queries, plan trees and
// latencies exactly, deduplicating repeated queries into shared pointers.
func TestExperienceContainerRoundTrip(t *testing.T) {
	q1, q2 := testQuery("q1"), testQuery("q2")
	p1 := &plan.Plan{Query: q1, Roots: []*plan.Node{
		plan.Join2(plan.HashJoin, plan.Leaf("a", plan.TableScan), plan.Leaf("b", plan.IndexScan)),
	}}
	p2 := &plan.Plan{Query: q2, Roots: []*plan.Node{
		plan.Join2(plan.MergeJoin, plan.Leaf("b", plan.TableScan), plan.Leaf("a", plan.TableScan)),
	}}
	in := []core.Entry{
		{Query: q1, Plan: p1, Latency: 12.5},
		{Query: q1, Plan: p1, Latency: 11.25},
		{Query: q2, Plan: p2, Latency: 99},
	}
	var buf bytes.Buffer
	if err := SaveExperience(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := LoadExperience(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d entries, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i].Latency != in[i].Latency {
			t.Errorf("entry %d latency %v, want %v", i, got[i].Latency, in[i].Latency)
		}
		if got[i].Query.Signature() != in[i].Query.Signature() {
			t.Errorf("entry %d query signature mismatch", i)
		}
		if got[i].Plan.String() != in[i].Plan.String() {
			t.Errorf("entry %d plan %s, want %s", i, got[i].Plan, in[i].Plan)
		}
	}
	if got[0].Query != got[1].Query {
		t.Error("repeated query not deduplicated into one restored pointer")
	}
	if got[0].Plan.Query != got[0].Query {
		t.Error("restored plan not bound to its restored query")
	}
}

// TestExperienceContainerRejectsDamage pins that the wire artifact fails
// with the package sentinels a trainer keys its HTTP statuses on.
func TestExperienceContainerRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveExperience(&buf, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := LoadExperience(bytes.NewReader([]byte("NOTACKPT"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	if _, err := LoadExperience(bytes.NewReader(data[:len(data)-1])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: got %v", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-1] ^= 0x40
	if _, err := LoadExperience(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt payload: got %v", err)
	}
	// A latency that is not a finite non-negative number is damage too, CRC
	// or no CRC: it would become a training target.
	st := testState(t)
	for _, lat := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		bad := slices.Clone(st.Experience)
		bad[len(bad)-1].Latency = lat
		var poisoned bytes.Buffer
		if err := SaveExperience(&poisoned, bad); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadExperience(&poisoned); !errors.Is(err, ErrCorrupt) {
			t.Errorf("latency %v: got %d entries, err %v, want ErrCorrupt", lat, len(got), err)
		}
		withBaseline := *st
		withBaseline.Baselines = map[string]float64{"q1": lat}
		var full bytes.Buffer
		if err := Save(&full, &withBaseline); err != nil {
			t.Fatal(err)
		}
		if _, err := load(full.Bytes(), ""); !errors.Is(err, ErrCorrupt) {
			t.Errorf("baseline %v: got %v, want ErrCorrupt", lat, err)
		}
	}
	// A full checkpoint is a superset: LoadExperience reads its experience
	// section and ignores the rest.
	var full bytes.Buffer
	if err := Save(&full, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadExperience(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(st.Experience) {
		t.Fatalf("full checkpoint: got %d entries, want %d", len(got), len(st.Experience))
	}
}

// TestHeaderOnlyContainerAllocatesNothing: a 40-byte body — a valid header
// declaring one section of the largest length the reader accepts, and no
// payload — fails as truncated without the declared length ever being
// allocated. The same reader parses checkpoints, the snapshots replicas pull
// and every POST /experience body.
func TestHeaderOnlyContainerAllocatesNothing(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(Magic)
	_ = wire.WriteU32(&body, FormatVersion)
	_ = wire.WriteU32(&body, 1)
	body.Write([]byte{0, byte(len(sectionExperience))})
	body.WriteString(sectionExperience)
	_ = wire.WriteU64(&body, wire.MaxLen)
	_ = wire.WriteU32(&body, 0)
	if body.Len() != 40 {
		t.Fatalf("fixture is %d bytes, want the 40-byte header-only container", body.Len())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadExperience(&body)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("header-only container: got %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 40-byte body made the reader allocate %d bytes", grew)
	}
}

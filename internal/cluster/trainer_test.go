package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"neo/internal/checkpoint"
	"neo/internal/cluster/proto"
	"neo/internal/plan"
)

func asStatus(err error, se **proto.StatusError) bool { return errors.As(err, se) }

// TestTrainerPublishesAndIngests pins the trainer contract end to end: the
// initial snapshot is published at creation, GET /snapshot restores a
// bit-identical system, POST /experience ingests replica batches and
// triggers retraining at the configured cadence, and the retrained network
// is published as a new downloadable version while the old one stays
// available for rollback.
func TestTrainerPublishesAndIngests(t *testing.T) {
	sys, queries := testSystem(t, true)
	trainer, err := NewTrainer(sys, TrainerConfig{RetrainEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	ts := httptest.NewServer(trainer)
	defer ts.Close()
	ctx := context.Background()
	client := proto.Client{}

	v0 := trainer.NetVersion()
	payload, hdr, err := client.GetBytes(ctx, ts.URL+"/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if got := hdr.Get(proto.HeaderNetVersion); got != strconv.FormatUint(v0, 10) {
		t.Fatalf("snapshot version header %q, want %d", got, v0)
	}
	// The container restores a second system to identical planning.
	replica, _ := testSystem(t, false)
	if err := replica.LoadCheckpoint(bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if replica.Neo.NetVersion() != v0 {
		t.Fatalf("restored version %d, want %d", replica.Neo.NetVersion(), v0)
	}
	for _, q := range queries[:2] {
		want, _, err := sys.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := replica.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("snapshot-restored system plans differently:\n  %s\n  %s", got, want)
		}
	}

	// Ingest a replica-style experience batch big enough to trigger a
	// retraining round.
	entries := sys.Neo.Experience.Entries()[:4]
	var buf bytes.Buffer
	if err := checkpoint.SaveExperience(&buf, entries); err != nil {
		t.Fatal(err)
	}
	before := sys.Neo.Experience.Len()
	var resp proto.ExperienceResponse
	if err := client.PostBytes(ctx, ts.URL+"/experience", buf.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 4 || resp.Experience != before+4 {
		t.Fatalf("ingest reply %+v, want 4 accepted onto %d", resp, before)
	}
	if !resp.RetrainTriggered {
		t.Fatal("4 entries at RetrainEvery=4 did not trigger retraining")
	}
	waitFor(t, 30*time.Second, "retrain to publish a new version", func() bool {
		return trainer.Stats().Retrains >= 1 && trainer.NetVersion() > v0
	})
	st := trainer.Stats()
	if st.Batches != 1 || st.Accepted != 4 {
		t.Fatalf("stats %+v", st)
	}
	if len(st.Versions) != 2 {
		t.Fatalf("published versions %v, want old and new", st.Versions)
	}
	// The superseded version stays downloadable (rollback material).
	old, hdr2, err := client.GetBytes(ctx, ts.URL+"/snapshot?version="+strconv.FormatUint(v0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if hdr2.Get(proto.HeaderNetVersion) != strconv.FormatUint(v0, 10) || !bytes.Equal(old, payload) {
		t.Fatal("historical snapshot changed after retraining")
	}
}

// TestTrainerRejectsMalformedPlans: a CRC-valid batch whose plan has a join
// operator Neo does not have gets 400 and ingests nothing. Ingested, it would
// start a background retraining round whose plan encoder indexes by the
// operator, and the panic there would stop the trainer.
func TestTrainerRejectsMalformedPlans(t *testing.T) {
	sys, _ := testSystem(t, true)
	trainer, err := NewTrainer(sys, TrainerConfig{RetrainEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	ts := httptest.NewServer(trainer)
	defer ts.Close()

	before := sys.Neo.Experience.Len()
	entries := sys.Neo.Experience.Entries()[:3]
	root := entries[1].Plan.Roots[0]
	entries[1].Plan = &plan.Plan{Query: entries[1].Query, Roots: []*plan.Node{plan.Join2(plan.JoinOp(200), root.Left, root.Right)}}
	var buf bytes.Buffer
	if err := checkpoint.SaveExperience(&buf, entries); err != nil {
		t.Fatal(err)
	}
	c := fastClient()
	err = c.PostBytes(context.Background(), ts.URL+"/experience", buf.Bytes(), nil)
	var se *proto.StatusError
	if !asStatus(err, &se) || se.Code != 400 {
		t.Fatalf("batch with join op 200: got %v, want 400", err)
	}
	if err := trainer.Close(); err != nil { // waits for any retraining round
		t.Fatal(err)
	}
	if st := trainer.Stats(); st.Accepted != 0 || st.Batches != 0 || st.Retrains != 0 || sys.Neo.Experience.Len() != before {
		t.Fatalf("accepted %d entries in %d batches, %d retrains, experience %d -> %d",
			st.Accepted, st.Batches, st.Retrains, before, sys.Neo.Experience.Len())
	}
}

// TestTrainerRejectsDamagedBatches pins that a damaged experience container
// is rejected with 400 — the replica's retry policy must not waste attempts
// on a payload that can never ingest.
func TestTrainerRejectsDamagedBatches(t *testing.T) {
	sys, _ := testSystem(t, true)
	trainer, err := NewTrainer(sys, TrainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	ts := httptest.NewServer(trainer)
	defer ts.Close()

	c := fastClient()
	err = c.PostBytes(context.Background(), ts.URL+"/experience", []byte("NOTACKPT-garbage"), nil)
	var se *proto.StatusError
	if !asStatus(err, &se) || se.Code != 400 {
		t.Fatalf("damaged container: got %v, want 400", err)
	}
	if proto.Retryable(err) {
		t.Fatal("damaged-container rejection reported retryable")
	}
	if got := trainer.Stats().Batches; got != 0 {
		t.Fatalf("damaged batch counted as ingested (%d)", got)
	}
	// A well-framed, CRC-valid batch is damaged too when a latency in it
	// cannot be a training target: one NaN would reach every weight of the
	// next published network. Nothing of such a batch is ingested.
	before := sys.Neo.Experience.Len()
	for _, lat := range []float64{math.NaN(), math.Inf(1), -5} {
		entries := sys.Neo.Experience.Entries()[:3]
		entries[1].Latency = lat
		var buf bytes.Buffer
		if err := checkpoint.SaveExperience(&buf, entries); err != nil {
			t.Fatal(err)
		}
		err = c.PostBytes(context.Background(), ts.URL+"/experience", buf.Bytes(), nil)
		if !asStatus(err, &se) || se.Code != 400 {
			t.Fatalf("batch with latency %v: got %v, want 400", lat, err)
		}
		if st := trainer.Stats(); st.Accepted != 0 || st.Batches != 0 || sys.Neo.Experience.Len() != before {
			t.Fatalf("batch with latency %v: accepted %d entries in %d batches, experience %d -> %d",
				lat, st.Accepted, st.Batches, before, sys.Neo.Experience.Len())
		}
	}
	// Unknown snapshot versions 404.
	_, _, err = c.GetBytes(context.Background(), ts.URL+"/snapshot?version=999999")
	if !asStatus(err, &se) || se.Code != 404 {
		t.Fatalf("unknown version: got %v, want 404", err)
	}
}

package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"neo/internal/checkpoint"
	"neo/internal/cluster/proto"
	"neo/internal/core"
	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/internal/serve"
	"neo/internal/wire"
	"neo/pkg/neo"
)

// learnerDoor is one HTTP front door onto the shared learning loop: post
// sends n experience entries through it and reports whether the reply said a
// retraining round was triggered.
type learnerDoor struct {
	post      func(n int) bool
	retrains  func() (done uint64, inFlight bool)
	published func() uint64 // what the after-retrain hook publishes; nil without a hook
	close     func() error
}

func standaloneDoor(t *testing.T, sys *neo.System, queries []*neo.Query, every int) learnerDoor {
	srv := serve.New(sys, serve.Config{RetrainEvery: every})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	spec := specFor(queries[0])
	return learnerDoor{
		post: func(n int) (triggered bool) {
			for i := 0; i < n; i++ {
				var resp proto.FeedbackResponse
				if code := postJSON(t, ts.URL+"/feedback", proto.FeedbackRequest{Query: spec, LatencyMS: 10}, &resp); code != http.StatusOK {
					t.Fatalf("feedback: status %d", code)
				}
				triggered = triggered || resp.RetrainTriggered
			}
			return triggered
		},
		retrains: func() (uint64, bool) {
			var st serve.Stats
			if err := (&proto.Client{}).GetJSON(context.Background(), ts.URL+"/stats", &st); err != nil {
				t.Fatal(err)
			}
			return st.Retrains, st.Retraining
		},
		close: srv.Close,
	}
}

func trainerDoor(t *testing.T, sys *neo.System, queries []*neo.Query, every int) learnerDoor {
	trainer, err := NewTrainer(sys, TrainerConfig{RetrainEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(trainer)
	t.Cleanup(ts.Close)
	entry := sys.Neo.Experience.Entries()[0]
	return learnerDoor{
		post: func(n int) bool {
			entries := make([]core.Entry, n)
			for i := range entries {
				entries[i] = entry
			}
			var buf bytes.Buffer
			if err := checkpoint.SaveExperience(&buf, entries); err != nil {
				t.Fatal(err)
			}
			var resp proto.ExperienceResponse
			if err := (&proto.Client{}).PostBytes(context.Background(), ts.URL+"/experience", buf.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			return resp.RetrainTriggered
		},
		retrains: func() (uint64, bool) {
			st := trainer.Stats()
			return st.Retrains, st.Training
		},
		published: trainer.NetVersion,
		close:     trainer.Close,
	}
}

// encodeGate is a cardinality source that parks every plan encoding while
// held — the one point a test can reach inside a retraining round.
type encodeGate struct {
	feature.CardinalitySource
	mu     sync.Mutex
	parked chan struct{} // non-nil while held
}

func (g *encodeGate) hold() (release func()) {
	parked := make(chan struct{})
	g.mu.Lock()
	g.parked = parked
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.parked = nil
		g.mu.Unlock()
		close(parked)
	}
}

func (g *encodeGate) NodeCardinality(q *query.Query, n *plan.Node, left, right float64) float64 {
	g.mu.Lock()
	parked := g.parked
	g.mu.Unlock()
	if parked != nil {
		<-parked
	}
	return g.CardinalitySource.NodeCardinality(q, n, left, right)
}

// TestRetrainCadence drives the one learning loop through both of its front
// doors — POST /feedback on a standalone neo-serve, POST /experience on a
// neo-trainer — and pins the cadence they share: a round starts on the N-th
// entry since the last round was started, none starts while one is in flight,
// entries arriving mid-round count toward the next round, nothing starts
// after Close, and Close returns only after the in-flight round's hook ran.
func TestRetrainCadence(t *testing.T) {
	const every = 3
	doors := map[string]func(*testing.T, *neo.System, []*neo.Query, int) learnerDoor{
		"standalone /feedback": standaloneDoor,
		"trainer /experience":  trainerDoor,
	}
	for name, open := range doors {
		t.Run(name, func(t *testing.T) {
			sys, queries := testSystem(t, true)
			gate := &encodeGate{CardinalitySource: sys.Featurizer.Cardinality}
			sys.Featurizer.Cardinality = gate
			door := open(t, sys, queries, every)
			// holdTraining parks retraining rounds where they encode their
			// training samples until the returned release is called. The
			// doors only ever send queries[0]; planning it once first makes
			// every feedback during the hold a plan-cache hit (a parked round
			// publishes nothing), so no request encodes and parks with it.
			holdTraining := func() (release func()) {
				if _, _, _, err := sys.Neo.OptimizeCached(queries[0]); err != nil {
					t.Fatal(err)
				}
				return gate.hold()
			}
			waitRetrains := func(want uint64) {
				t.Helper()
				waitFor(t, 20*time.Second, "the retraining round to finish", func() bool {
					done, inFlight := door.retrains()
					return done == want && !inFlight
				})
			}

			if door.post(every - 1) {
				t.Fatalf("a round started after %d of %d entries", every-1, every)
			}
			release := holdTraining()
			if !door.post(1) {
				t.Fatalf("entry %d since the last round did not start one", every)
			}
			if door.post(every) {
				t.Fatal("a second round started while one was in flight")
			}
			if done, inFlight := door.retrains(); done != 0 || !inFlight {
				t.Fatalf("mid-round stats: %d rounds done, in flight %v; want 0 done, one in flight", done, inFlight)
			}
			release()
			waitRetrains(1)

			// The entries that arrived mid-round already fill the next
			// round's quota: the very next entry starts it.
			if !door.post(1) {
				t.Fatal("entries that arrived mid-round did not count toward the next round")
			}
			waitRetrains(2)

			// Close while a round is parked: it must wait the round — and the
			// hook that publishes its snapshot — out.
			release = holdTraining()
			if !door.post(every) {
				t.Fatal("third round did not start")
			}
			closed := make(chan error, 1)
			go func() { closed <- door.close() }()
			release()
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if done, inFlight := door.retrains(); done != 3 || inFlight {
				t.Fatalf("after Close: %d rounds done, in flight %v; want 3 done, none in flight", done, inFlight)
			}
			if door.published != nil && door.published() != sys.Neo.NetVersion() {
				t.Fatalf("Close returned before the round's snapshot was published: published %d, trained %d",
					door.published(), sys.Neo.NetVersion())
			}
			if door.post(2 * every) {
				t.Fatal("a round started after Close")
			}
			if done, inFlight := door.retrains(); done != 3 || inFlight {
				t.Fatalf("after Close and %d more entries: %d rounds done, in flight %v", 2*every, done, inFlight)
			}
		})
	}
}

// TestTrainerCapsExperienceBody: a POST /experience body past
// proto.MaxExperienceBytes is refused with 413 before anything is parsed, and
// moves no counter.
func TestTrainerCapsExperienceBody(t *testing.T) {
	sys, _ := testSystem(t, true)
	trainer, err := NewTrainer(sys, TrainerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	ts := httptest.NewServer(trainer)
	defer ts.Close()

	// A well-formed header whose one section is exactly as long as it
	// declares — a whole cap's worth, so header plus section exceed the cap.
	// The container reader's own size check (wire.MaxLen) passes; only the
	// body cap can stop it.
	var body bytes.Buffer
	body.WriteString(checkpoint.Magic)
	_ = wire.WriteU32(&body, checkpoint.FormatVersion)
	_ = wire.WriteU32(&body, 1)
	body.Write([]byte{0, byte(len("experience"))})
	body.WriteString("experience")
	_ = wire.WriteU64(&body, proto.MaxExperienceBytes)
	_ = wire.WriteU32(&body, 0)
	body.Write(make([]byte, proto.MaxExperienceBytes))
	before := trainer.Stats()
	resp, err := http.Post(ts.URL+"/experience", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized experience body: status %d, want 413", resp.StatusCode)
	}
	after := trainer.Stats()
	if after.Batches != before.Batches || after.Accepted != before.Accepted || after.Experience != before.Experience {
		t.Fatalf("refused body moved counters: %+v -> %+v", before, after)
	}
}

package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"neo/internal/cluster/proto"
)

// stubReplica fakes the replica surface the coordinator drives: /stats with
// a quality window and /admin/snapshot that records loads. regress makes the
// post-load window look worse than the pre-load one; hold reports an empty
// window, so the coordinator keeps soaking. With a trainer set, a load of a
// version the trainer no longer publishes fails, as a real replica's pull
// would.
type stubReplica struct {
	mu      sync.Mutex
	version uint64
	loads   []uint64
	regress bool
	hold    bool
	failNow bool
	trainer *Trainer
	quality proto.QualityStats
	srv     *httptest.Server
}

func newStubReplica(version uint64) *stubReplica {
	sr := &stubReplica{version: version}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		sr.mu.Lock()
		st := proto.ReplicaStats{NetVersion: sr.version, Cluster: &proto.ClusterStats{Role: "replica", Quality: sr.quality}}
		if sr.hold {
			st.Cluster.Quality = proto.QualityStats{}
		}
		sr.mu.Unlock()
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("POST /admin/snapshot", func(w http.ResponseWriter, r *http.Request) {
		var req proto.SnapshotRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		sr.mu.Lock()
		if sr.failNow {
			sr.mu.Unlock()
			http.Error(w, `{"error":"trainer unreachable"}`, http.StatusBadGateway)
			return
		}
		if sr.trainer != nil {
			if _, _, ok := sr.trainer.Snapshot(req.Version); !ok {
				sr.mu.Unlock()
				http.Error(w, `{"error":"snapshot version not published"}`, http.StatusNotFound)
				return
			}
		}
		sr.version = req.Version
		sr.loads = append(sr.loads, req.Version)
		// Loading archives the window, exactly like a real replica.
		mean := 10.0
		if sr.regress {
			mean = 30.0
		}
		sr.quality = proto.QualityStats{
			WindowFeedbacks: 10, WindowMeanLatencyMS: mean,
			PrevWindowFeedbacks: 10, PrevWindowMeanMS: 10.0,
		}
		sr.mu.Unlock()
		_ = json.NewEncoder(w).Encode(proto.SnapshotResponse{NetVersion: req.Version})
	})
	sr.srv = httptest.NewServer(mux)
	return sr
}

func (sr *stubReplica) state() (uint64, []uint64) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.version, append([]uint64(nil), sr.loads...)
}

// TestCoordinatorPromotes pins the happy path of the rollout state machine:
// canary the version on the first replica, observe a healthy quality window,
// promote to the rest of the fleet.
func TestCoordinatorPromotes(t *testing.T) {
	a, b := newStubReplica(5), newStubReplica(5)
	defer a.srv.Close()
	defer b.srv.Close()
	c := NewCoordinator(RolloutConfig{
		Replicas:     []string{a.srv.URL, b.srv.URL},
		CanaryWait:   300 * time.Millisecond,
		MinFeedbacks: 1,
		Client:       fastClient(),
	})
	promoted, err := c.Rollout(nil, 6)
	if err != nil || !promoted {
		t.Fatalf("rollout: promoted=%v err=%v", promoted, err)
	}
	if va, _ := a.state(); va != 6 {
		t.Fatalf("canary at version %d, want 6", va)
	}
	if vb, _ := b.state(); vb != 6 {
		t.Fatalf("fleet replica at version %d, want 6", vb)
	}
	st := c.Status()
	if st.Phase != "idle" || st.Promoted != 6 || st.Promotions != 1 || st.Rollbacks != 0 {
		t.Fatalf("status %+v", st)
	}
}

// TestCoordinatorRollsBackOnRegression pins the safety half: a canary whose
// quality window regresses beyond tolerance is rolled back to its previous
// version, the rest of the fleet never sees the bad version, and the version
// is barred from re-canarying.
func TestCoordinatorRollsBackOnRegression(t *testing.T) {
	a, b := newStubReplica(5), newStubReplica(5)
	defer a.srv.Close()
	defer b.srv.Close()
	a.regress = true // 30ms canary mean vs 10ms baseline: past default 25% tolerance
	c := NewCoordinator(RolloutConfig{
		Replicas:     []string{a.srv.URL, b.srv.URL},
		CanaryWait:   300 * time.Millisecond,
		MinFeedbacks: 1,
		Client:       fastClient(),
	})
	promoted, err := c.Rollout(nil, 6)
	if err != nil || promoted {
		t.Fatalf("regressing rollout: promoted=%v err=%v, want clean rollback", promoted, err)
	}
	va, loadsA := a.state()
	if va != 5 {
		t.Fatalf("canary left at version %d after rollback, want 5", va)
	}
	if len(loadsA) != 2 || loadsA[0] != 6 || loadsA[1] != 5 {
		t.Fatalf("canary load sequence %v, want [6 5]", loadsA)
	}
	if _, loadsB := b.state(); len(loadsB) != 0 {
		t.Fatalf("bad version reached a non-canary replica: %v", loadsB)
	}
	st := c.Status()
	if st.Rollbacks != 1 || st.Promotions != 0 || len(st.BadVersions) != 1 || st.BadVersions[0] != 6 {
		t.Fatalf("status %+v", st)
	}
	// Barred: the same version never re-canaries.
	if _, err := c.Rollout(nil, 6); err == nil {
		t.Fatal("rolled-back version was allowed to re-canary")
	}
	// A newer version still rolls out (the stub regresses every load, so
	// tolerate by raising Tolerance).
	c2 := NewCoordinator(RolloutConfig{
		Replicas:     []string{a.srv.URL, b.srv.URL},
		Tolerance:    5.0,
		CanaryWait:   300 * time.Millisecond,
		MinFeedbacks: 1,
		Client:       fastClient(),
	})
	if promoted, err := c2.Rollout(nil, 7); err != nil || !promoted {
		t.Fatalf("tolerant rollout of 7: promoted=%v err=%v", promoted, err)
	}
}

// TestCoordinatorCanaryRefusal pins that a canary that cannot load the
// snapshot aborts the rollout with an error and no fleet-wide damage.
func TestCoordinatorCanaryRefusal(t *testing.T) {
	a, b := newStubReplica(5), newStubReplica(5)
	defer a.srv.Close()
	defer b.srv.Close()
	a.failNow = true
	c := NewCoordinator(RolloutConfig{
		Replicas:     []string{a.srv.URL, b.srv.URL},
		CanaryWait:   50 * time.Millisecond,
		MinFeedbacks: 1,
		Client:       fastClient(),
	})
	if promoted, err := c.Rollout(nil, 6); err == nil || promoted {
		t.Fatalf("rollout with refusing canary: promoted=%v err=%v, want error", promoted, err)
	}
	if _, loadsB := b.state(); len(loadsB) != 0 {
		t.Fatalf("fleet touched despite canary refusal: %v", loadsB)
	}
	if st := c.Status(); st.Phase != "idle" {
		t.Fatalf("coordinator stuck in phase %q", st.Phase)
	}
	// One rollout at a time: a second attempt while one is in flight fails
	// with the busy sentinel.
	c.mu.Lock()
	c.phase = "canary"
	c.mu.Unlock()
	if _, err := c.Rollout(nil, 9); !errors.Is(err, ErrRolloutBusy) {
		t.Fatalf("concurrent rollout: got %v, want ErrRolloutBusy", err)
	}
}

// TestRolloutKeepsItsVersions is the regression test for snapshot eviction
// during a rollout. The learner keeps publishing while a canary soaks, and a
// fixed window of the newest versions would evict the canary's rollback
// target after three rounds and the version being rolled out after four.
// The trainer must keep both however many rounds finish meanwhile.
func TestRolloutKeepsItsVersions(t *testing.T) {
	canary, peer := newStubReplica(0), newStubReplica(0)
	defer canary.srv.Close()
	defer peer.srv.Close()
	sys, _ := testSystem(t, true)
	trainer, err := NewTrainer(sys, TrainerConfig{RetrainEvery: -1, Rollout: &RolloutConfig{
		Replicas:     []string{canary.srv.URL, peer.srv.URL},
		CanaryWait:   10 * time.Second,
		MinFeedbacks: 1,
		Client:       fastClient(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	base := trainer.NetVersion()
	for _, sr := range []*stubReplica{canary, peer} {
		sr.mu.Lock()
		sr.version, sr.trainer = base, trainer
		sr.mu.Unlock()
	}

	published := []uint64{base}
	publish := func(rounds int) {
		for i := 0; i < rounds; i++ {
			sys.Neo.Retrain()
			if err := trainer.publish(); err != nil {
				t.Fatal(err)
			}
			published = append(published, trainer.NetVersion())
		}
	}
	// rollout publishes a version and rolls it out, publishing more rounds
	// while the canary soaks on it.
	rollout := func(during int, regress bool) (v uint64, promoted bool, err error) {
		publish(1)
		v = trainer.NetVersion()
		canary.mu.Lock()
		canary.regress, canary.hold = regress, true
		canary.mu.Unlock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			promoted, err = trainer.rollout.Rollout(nil, v)
		}()
		waitFor(t, 10*time.Second, "the canary to load the new version", func() bool {
			cv, _ := canary.state()
			return cv == v
		})
		publish(during)
		canary.mu.Lock()
		canary.hold = false
		canary.mu.Unlock()
		<-done
		return v, promoted, err
	}

	// Three rounds during the soak: the regressed canary is still restored
	// to the version it served before.
	v, promoted, err := rollout(3, true)
	if err != nil || promoted {
		t.Fatalf("regressed rollout of %d: promoted=%v err=%v, want a clean rollback", v, promoted, err)
	}
	if cv, _ := canary.state(); cv != base {
		t.Fatalf("canary left at version %d, want rollback target %d", cv, base)
	}

	// Four rounds during the soak: the version is still promoted to every
	// replica.
	v, promoted, err = rollout(4, false)
	if err != nil || !promoted {
		t.Fatalf("healthy rollout of %d: promoted=%v err=%v", v, promoted, err)
	}
	for _, sr := range []*stubReplica{canary, peer} {
		if got, _ := sr.state(); got != v {
			t.Fatalf("replica at version %d after promotion, want %d", got, v)
		}
	}
	// The pins come on top of the window: the newest keepVersions versions
	// are all still downloadable, and so is the promoted version, which is
	// the next rollout's rollback target.
	kept := map[uint64]bool{}
	for _, old := range trainer.Stats().Versions {
		kept[old] = true
	}
	for _, want := range append(published[len(published)-keepVersions:], v) {
		if !kept[want] {
			t.Fatalf("trainer keeps versions %v, want the newest %d of %v and %d", trainer.Stats().Versions, keepVersions, published, v)
		}
	}
	if len(kept) > keepVersions+2 {
		t.Fatalf("trainer keeps versions %v, want at most %d", trainer.Stats().Versions, keepVersions+2)
	}
}

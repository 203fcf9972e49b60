package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neo/internal/checkpoint"
	"neo/internal/cluster/proto"
	"neo/internal/core"
)

// fakeTrainer is a minimal trainer endpoint for replica tests: it ingests
// experience containers and serves one fixed snapshot.
type fakeTrainer struct {
	mu       sync.Mutex
	entries  []core.Entry
	batches  int
	snapshot []byte
	version  uint64
}

func (ft *fakeTrainer) count() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.entries)
}

func (ft *fakeTrainer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /experience", func(w http.ResponseWriter, r *http.Request) {
		entries, err := checkpoint.LoadExperience(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ft.mu.Lock()
		ft.entries = append(ft.entries, entries...)
		ft.batches++
		n := len(ft.entries)
		ft.mu.Unlock()
		_ = json.NewEncoder(w).Encode(proto.ExperienceResponse{Accepted: len(entries), Experience: n})
	})
	mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		ft.mu.Lock()
		defer ft.mu.Unlock()
		if ft.snapshot == nil {
			http.Error(w, "no snapshot", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(ft.snapshot)
	})
	return mux
}

// fastClient keeps trainer-outage tests quick: one attempt, tight timeout.
func fastClient() proto.Client {
	return proto.Client{Attempts: 1, Backoff: time.Millisecond, Timeout: 500 * time.Millisecond}
}

// TestReplicaForwardsFeedback pins the replica half of the tentpole: a
// replica daemon queues /feedback experience and the forwarder delivers it
// to the trainer as CRC-checked containers, with the counters surfacing in
// /stats. Replicas must never retrain locally.
func TestReplicaForwardsFeedback(t *testing.T) {
	sys, queries := testSystem(t)
	defer sys.Close()
	ft := &fakeTrainer{}
	trainer := httptest.NewServer(ft.handler())
	defer trainer.Close()

	srv := New(sys, Config{
		RetrainEvery: 1, // must be ignored: replicas never train
		Replica:      &ReplicaConfig{TrainerURL: trainer.URL, FlushEvery: 5 * time.Millisecond},
	})
	srv.Start()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 6
	for i := 0; i < n; i++ {
		var resp proto.FeedbackResponse
		if code := postJSON(t, ts.URL+"/feedback", proto.FeedbackRequest{Query: specFor(queries[i%len(queries)]), LatencyMS: 12.5}, &resp); code != http.StatusOK {
			t.Fatalf("feedback %d: status %d", i, code)
		}
		if !resp.Queued {
			t.Fatal("replica feedback was not queued")
		}
		if resp.RetrainTriggered {
			t.Fatal("a replica triggered local retraining")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for ft.count() < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := ft.count(); got != n {
		t.Fatalf("trainer received %d entries, want %d", got, n)
	}
	for _, e := range ft.entries {
		if e.Latency != 12.5 {
			t.Fatalf("entry latency %v survived the wire wrong", e.Latency)
		}
	}
	// The replica's forwarded counter lands just after the trainer's ingest;
	// poll for it.
	var st Stats
	for st = getStats(t, ts.URL); st.Cluster != nil && st.Cluster.Forwarded < n && time.Now().Before(deadline); st = getStats(t, ts.URL) {
		time.Sleep(2 * time.Millisecond)
	}
	if st.Cluster == nil {
		t.Fatal("replica /stats has no cluster section")
	}
	if st.Cluster.Role != "replica" || st.Cluster.Trainer != trainer.URL {
		t.Fatalf("cluster section %+v", st.Cluster)
	}
	if st.Cluster.Forwarded != n || st.Cluster.Dropped != 0 {
		t.Fatalf("forwarded=%d dropped=%d, want %d/0", st.Cluster.Forwarded, st.Cluster.Dropped, n)
	}
	if st.Cluster.Quality.WindowFeedbacks != n || st.Cluster.Quality.WindowMeanLatencyMS != 12.5 {
		t.Fatalf("quality window %+v", st.Cluster.Quality)
	}
	if st.Retrains != 0 || st.Experience != sys.Neo.Experience.Len() {
		t.Fatalf("replica trained: retrains=%d", st.Retrains)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaFrozenWhenTrainerDead pins the degradation contract: with the
// trainer gone, every client request still succeeds — experience queues,
// then the oldest entries drop — and the serving snapshot stays frozen.
func TestReplicaFrozenWhenTrainerDead(t *testing.T) {
	sys, queries := testSystem(t)
	defer sys.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	srv := New(sys, Config{Replica: &ReplicaConfig{
		TrainerURL: deadURL,
		FlushEvery: 5 * time.Millisecond,
		MaxQueue:   3,
		Client:     fastClient(),
	}})
	srv.Start()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	versionBefore := sys.Neo.NetVersion()
	var opt proto.OptimizeResponse
	if code := postJSON(t, ts.URL+"/optimize", specFor(queries[0]), &opt); code != http.StatusOK {
		t.Fatalf("optimize with dead trainer: status %d", code)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if code := postJSON(t, ts.URL+"/feedback", proto.FeedbackRequest{Query: specFor(queries[i%len(queries)]), LatencyMS: 9}, nil); code != http.StatusOK {
			t.Fatalf("feedback %d with dead trainer: status %d — a dead trainer must not fail requests", i, code)
		}
	}
	// The queue bound (3) drops the oldest of the 6; a flush tick records
	// the forwarding failure. The failed batch is off the queue while its
	// forward is in flight and re-bounded when it is put back, so the drops
	// can trail the first recorded error: wait for both.
	deadline := time.Now().Add(10 * time.Second)
	var st Stats
	for time.Now().Before(deadline) {
		st = getStats(t, ts.URL)
		if st.Cluster.ForwardErrors > 0 && st.Cluster.Dropped >= n-3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Cluster.Dropped < n-3 {
		t.Fatalf("dropped=%d, want >=%d (queue bound 3)", st.Cluster.Dropped, n-3)
	}
	if st.Cluster.ForwardErrors == 0 || st.Cluster.LastForwardError == "" {
		t.Fatalf("forwarding failures not surfaced: %+v", st.Cluster)
	}
	if sys.Neo.NetVersion() != versionBefore {
		t.Fatal("snapshot version moved with no trainer — replicas must stay frozen")
	}
	if err := srv.Close(); err != nil { // drain must give up quickly, not hang
		t.Fatal(err)
	}
}

// TestAdminSnapshotLoadsPublishedVersion pins the snapshot pull path: POST
// /admin/snapshot fetches the trainer's container, replaces the serving
// weights in one pointer store, archives the quality window, and leaves the
// replica planning exactly like the system the snapshot came from.
func TestAdminSnapshotLoadsPublishedVersion(t *testing.T) {
	source, queries := testSystem(t)
	defer source.Close()
	// Advance the source one retraining round so its published version is
	// ahead of the replica's.
	source.Neo.Retrain()
	var snap bytes.Buffer
	if err := source.SaveCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	ft := &fakeTrainer{snapshot: snap.Bytes(), version: source.Neo.NetVersion()}
	trainer := httptest.NewServer(ft.handler())
	defer trainer.Close()

	sys, _ := testSystem(t)
	defer sys.Close()
	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: trainer.URL, FlushEvery: time.Minute}})
	srv.Start()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if sys.Neo.NetVersion() == source.Neo.NetVersion() {
		t.Fatal("test setup: source and replica versions already equal")
	}
	// Seed the quality window so the load has something to archive.
	if code := postJSON(t, ts.URL+"/feedback", proto.FeedbackRequest{Query: specFor(queries[0]), LatencyMS: 20}, nil); code != http.StatusOK {
		t.Fatalf("feedback: status %d", code)
	}

	var resp proto.SnapshotResponse
	if code := postJSON(t, ts.URL+"/admin/snapshot", proto.SnapshotRequest{}, &resp); code != http.StatusOK {
		t.Fatalf("admin/snapshot: status %d", code)
	}
	if resp.NetVersion != source.Neo.NetVersion() {
		t.Fatalf("replica serves version %d after load, want %d", resp.NetVersion, source.Neo.NetVersion())
	}
	st := getStats(t, ts.URL)
	if st.NetVersion != resp.NetVersion || st.Cluster.SnapshotVersion != resp.NetVersion {
		t.Fatalf("stats version %d/%d, want %d", st.NetVersion, st.Cluster.SnapshotVersion, resp.NetVersion)
	}
	if st.Cluster.Quality.PrevWindowFeedbacks != 1 || st.Cluster.Quality.WindowFeedbacks != 0 {
		t.Fatalf("quality window not archived on load: %+v", st.Cluster.Quality)
	}
	// The replica now plans exactly like the source system.
	for _, q := range queries[:3] {
		want, _, err := source.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		var opt proto.OptimizeResponse
		if code := postJSON(t, ts.URL+"/optimize", specFor(q), &opt); code != http.StatusOK {
			t.Fatalf("optimize: status %d", code)
		}
		if opt.Plan != want.String() {
			t.Fatalf("replica plan diverged from snapshot source:\n  replica: %s\n  source:  %s", opt.Plan, want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdminSnapshotUnreachableTrainer pins that a failed pull leaves the
// replica on its current snapshot with a 502, not in a half-loaded state.
func TestAdminSnapshotUnreachableTrainer(t *testing.T) {
	sys, queries := testSystem(t)
	defer sys.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: deadURL, FlushEvery: time.Minute, Client: fastClient()}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	before := sys.Neo.NetVersion()
	if code := postJSON(t, ts.URL+"/admin/snapshot", proto.SnapshotRequest{}, nil); code != http.StatusBadGateway {
		t.Fatalf("admin/snapshot with dead trainer: status %d, want 502", code)
	}
	if sys.Neo.NetVersion() != before {
		t.Fatal("failed load changed the serving version")
	}
	if code := postJSON(t, ts.URL+"/optimize", specFor(queries[0]), nil); code != http.StatusOK {
		t.Fatalf("optimize after failed load: status %d", code)
	}
}

// TestCloseDrainsInFlightFeedback is the shutdown-drain regression test: a
// replica closed while /feedback requests are in flight must hand every
// accepted entry to the trainer — queued experience flushes in the drain,
// post-drain stragglers forward synchronously — and never drop or double
// anything. Run under -race.
func TestCloseDrainsInFlightFeedback(t *testing.T) {
	sys, queries := testSystem(t)
	defer sys.Close()
	ft := &fakeTrainer{}
	trainer := httptest.NewServer(ft.handler())
	defer trainer.Close()

	// FlushEvery of a minute: nothing flushes before Close, so every
	// delivered entry went through the drain or the straggler path.
	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: trainer.URL, FlushEvery: time.Minute, FlushBatch: 4}})
	srv.Start()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var accepted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 6; i++ {
				data, err := json.Marshal(proto.FeedbackRequest{Query: specFor(queries[(g+i)%len(queries)]), LatencyMS: 7})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/feedback", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Errorf("feedback during shutdown failed at transport level: %v", err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					accepted.Add(1)
				}
				resp.Body.Close()
			}
		}(g)
	}
	close(start)
	time.Sleep(10 * time.Millisecond) // let requests get in flight mid-close
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got, want := int64(ft.count()), accepted.Load(); got != want {
		t.Fatalf("trainer received %d entries but %d feedbacks were accepted — graceful drain dropped experience", got, want)
	}
	if accepted.Load() == 0 {
		t.Fatal("test vacuous: no feedback was accepted")
	}
}

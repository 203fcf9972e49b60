package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"neo/internal/checkpoint"
	"neo/internal/cluster/proto"
	"neo/internal/core"
)

// fakeTrainer is a minimal trainer endpoint for replica tests: it ingests
// experience containers and serves one fixed snapshot. A test can hold
// every POST /experience at a gate, fail the first few, and wait for any
// condition on what arrived (waitUntil) instead of sleeping.
type fakeTrainer struct {
	mu       sync.Mutex
	entries  []core.Entry
	batches  int
	posts    int // POST /experience attempts, failed ones included
	snapshot []byte
	version  uint64

	// failFirst is the number of POSTs answered 503 before any is accepted.
	failFirst int
	// gate, when non-nil, holds every POST after it is counted until open
	// closes it.
	gate     chan struct{}
	gateOnce sync.Once
	// changed is closed (and replaced) whenever posts or entries change.
	changed chan struct{}
}

func (ft *fakeTrainer) count() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.entries)
}

// open releases the gate; safe to call more than once, so a test can also
// defer it to keep a failed run from leaving the trainer's handlers parked.
func (ft *fakeTrainer) open() { ft.gateOnce.Do(func() { close(ft.gate) }) }

// notifyLocked wakes every waitUntil; ft.mu must be held.
func (ft *fakeTrainer) notifyLocked() {
	if ft.changed != nil {
		close(ft.changed)
	}
	ft.changed = make(chan struct{})
}

// waitUntil blocks until cond, evaluated under ft.mu, holds, failing the
// test if it has not after ten seconds.
func (ft *fakeTrainer) waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		ft.mu.Lock()
		if cond() {
			ft.mu.Unlock()
			return
		}
		if ft.changed == nil {
			ft.changed = make(chan struct{})
		}
		changed := ft.changed
		ft.mu.Unlock()
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (ft *fakeTrainer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /experience", func(w http.ResponseWriter, r *http.Request) {
		ft.mu.Lock()
		ft.posts++
		fail := ft.posts <= ft.failFirst
		gate := ft.gate
		ft.notifyLocked()
		ft.mu.Unlock()
		if gate != nil {
			<-gate
		}
		if fail {
			http.Error(w, "trainer unavailable", http.StatusServiceUnavailable)
			return
		}
		entries, err := checkpoint.LoadExperience(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ft.mu.Lock()
		ft.entries = append(ft.entries, entries...)
		ft.batches++
		n := len(ft.entries)
		ft.notifyLocked()
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
		Replica:      &ReplicaConfig{TrainerURL: trainer.URL},
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
	ft.waitUntil(t, "every entry at the trainer", func() bool { return len(ft.entries) >= n })
	if got := ft.count(); got != n {
		t.Fatalf("trainer received %d entries, want %d", got, n)
	}
	for _, e := range ft.entries {
		if e.Latency != 12.5 {
			t.Fatalf("entry latency %v survived the wire wrong", e.Latency)
		}
	}
	// The replica's forwarded counter lands just after the trainer's ingest;
	// Close waits for the forwarder, so the counters are final after it.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := getStats(t, ts.URL)
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
	// The queue bound (3) drops the oldest of the 6; the first forward
	// records the failure. The failed batch is off the queue while its
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
	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: trainer.URL}})
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

	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: deadURL, Client: fastClient()}})
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
// accepted entry to the trainer — the forward in flight completes, queued
// experience flushes in the drain, post-drain stragglers forward
// synchronously — and never drop or double anything. The trainer holds the
// forwarder's first POST until Close has begun, so entries pile up in the
// queue behind it. Run under -race.
func TestCloseDrainsInFlightFeedback(t *testing.T) {
	sys, queries := testSystem(t)
	defer sys.Close()
	ft := &fakeTrainer{gate: make(chan struct{})}
	trainer := httptest.NewServer(ft.handler())
	defer trainer.Close()
	defer ft.open()

	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: trainer.URL, FlushBatch: 4}})
	srv.Start()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Every feedback carries a distinct latency, so the trainer's entries
	// identify exactly which accepted feedbacks arrived, and how often.
	var mu sync.Mutex
	accepted := map[float64]bool{}
	feedback := func(latency float64) {
		data, err := json.Marshal(proto.FeedbackRequest{Query: specFor(queries[int(latency)%len(queries)]), LatencyMS: latency})
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
			mu.Lock()
			accepted[latency] = true
			mu.Unlock()
		}
		resp.Body.Close()
	}

	// The first feedback's forward parks at the trainer; the next ones queue.
	feedback(1)
	ft.waitUntil(t, "the first forward", func() bool { return ft.posts == 1 })
	for i := 2; i <= 9; i++ {
		feedback(float64(i))
	}
	// More feedback races Close: some is queued before the seal, some is a
	// straggler after it.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				feedback(float64(100 + 10*g + i))
			}
		}(g)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	<-srv.learner.Stopping()
	ft.open() // the forward in flight completes while Close waits for it
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	feedback(1000) // certainly after the seal: the straggler path

	seen := map[float64]int{}
	ft.mu.Lock()
	for _, e := range ft.entries {
		seen[e.Latency]++
	}
	ft.mu.Unlock()
	for latency, n := range seen {
		if n != 1 || !accepted[latency] {
			t.Errorf("entry with latency %v reached the trainer %d times (accepted: %v)", latency, n, accepted[latency])
		}
	}
	for latency := range accepted {
		if seen[latency] == 0 {
			t.Errorf("accepted feedback with latency %v never reached the trainer — graceful drain dropped experience", latency)
		}
	}
	if !accepted[1] || !accepted[9] || !accepted[1000] {
		t.Fatal("test vacuous: feedback before the drain or after the seal was not accepted")
	}
	if st := getStats(t, ts.URL); st.Cluster.Dropped != 0 {
		t.Fatalf("dropped=%d with a live trainer", st.Cluster.Dropped)
	}
}

// TestForwarderRetriesInOrder: a trainer that fails its first K POSTs and
// then accepts receives every entry exactly once and in order, and the
// forwarder's retry delay keeps the POST count near K plus the containers
// the entries need — feedback arriving while the trainer is failing must
// not each trigger a POST.
func TestForwarderRetriesInOrder(t *testing.T) {
	sys, queries := testSystem(t)
	defer sys.Close()
	const k, batch = 3, 4
	ft := &fakeTrainer{failFirst: k, gate: make(chan struct{})}
	trainer := httptest.NewServer(ft.handler())
	defer trainer.Close()
	defer ft.open()

	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: trainer.URL, FlushBatch: batch, Client: fastClient()}})
	srv.Start()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	latency := 0.0
	feedback := func() {
		latency++
		if code := postJSON(t, ts.URL+"/feedback", proto.FeedbackRequest{Query: specFor(queries[int(latency)%len(queries)]), LatencyMS: latency}, nil); code != http.StatusOK {
			t.Fatalf("feedback %v: status %d", latency, code)
		}
	}
	// The first POST waits at the gate while more feedback queues behind it;
	// after it fails, more arrives inside the retry delay.
	feedback()
	ft.waitUntil(t, "the first forward", func() bool { return ft.posts == 1 })
	for i := 0; i < 11; i++ {
		feedback()
	}
	ft.open()
	for i := 0; i < 8; i++ {
		feedback()
	}
	entries := int(latency)
	ft.waitUntil(t, "every entry at the trainer", func() bool { return len(ft.entries) >= entries })

	ft.mu.Lock()
	defer ft.mu.Unlock()
	if len(ft.entries) != entries {
		t.Fatalf("trainer received %d entries, want %d", len(ft.entries), entries)
	}
	for i, e := range ft.entries {
		if e.Latency != float64(i+1) {
			t.Fatalf("entry %d carries latency %v, want %d: entries arrived out of order or twice", i, e.Latency, i+1)
		}
	}
	if limit := k + (entries+batch-1)/batch + 2; ft.posts > limit {
		t.Fatalf("%d POST attempts for %d entries and %d failures, want at most %d", ft.posts, entries, k, limit)
	}
}

// TestStragglerForwardFailureCountsDropped: feedback accepted after the
// shutdown drain is forwarded synchronously; when that forward fails the
// entry never reaches the trainer, and /stats must count it dropped.
func TestStragglerForwardFailureCountsDropped(t *testing.T) {
	sys, queries := testSystem(t)
	defer sys.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: deadURL, Client: fastClient()}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := srv.Close(); err != nil { // seals the (empty) queue
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/feedback", proto.FeedbackRequest{Query: specFor(queries[0]), LatencyMS: 3}, nil); code != http.StatusOK {
		t.Fatalf("straggler feedback: status %d", code)
	}
	st := getStats(t, ts.URL)
	if st.Cluster.ForwardErrors != 1 || st.Cluster.Dropped != 1 {
		t.Fatalf("forward_errors=%d dropped=%d after one failed straggler forward, want 1/1", st.Cluster.ForwardErrors, st.Cluster.Dropped)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"neo/internal/cluster/proto"
	"neo/internal/feature"
	"neo/internal/plan"
	"neo/internal/query"
	"neo/pkg/neo"
)

// searchGate wraps a system's cardinality source and, once armed, parks the
// next plan encoding — i.e. the search that issued it — until released
// (core's gateCardinality, over the real source so plans stay the system's
// own).
type searchGate struct {
	feature.CardinalitySource
	armed   atomic.Bool
	started chan struct{}
	release chan struct{}
}

func gateSearches(sys *neo.System) *searchGate {
	g := &searchGate{CardinalitySource: sys.Featurizer.Cardinality, started: make(chan struct{}), release: make(chan struct{})}
	sys.Featurizer.Cardinality = g
	return g
}

func (g *searchGate) NodeCardinality(q *query.Query, joins *plan.Joins, n *plan.Node, left, right float64) float64 {
	if g.armed.CompareAndSwap(true, false) {
		close(g.started)
		<-g.release
	}
	return g.CardinalitySource.NodeCardinality(q, joins, n, left, right)
}

// publishedVersions is a trainer's GET /snapshot over a fixed set of
// published containers: ?version=N picks one, no version the latest.
func publishedVersions(t *testing.T, snapshots map[uint64][]byte, latest uint64) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		version := latest
		if v := r.URL.Query().Get("version"); v != "" {
			version, _ = strconv.ParseUint(v, 10, 64)
		}
		body, ok := snapshots[version]
		if r.URL.Path != "/snapshot" || !ok {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// twoVersions bootstraps a source system and returns the checkpoints it
// writes before and after one more retraining round, with the versions and
// every weight of each — what a trainer would have published.
func twoVersions(t *testing.T) (snapshots map[uint64][]byte, old, fresh uint64, weights map[uint64][]float64) {
	t.Helper()
	source, _ := testSystem(t)
	defer source.Close()
	snapshots, weights = map[uint64][]byte{}, map[uint64][]float64{}
	record := func() uint64 {
		var buf bytes.Buffer
		if err := source.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		v := source.Neo.NetVersion()
		snapshots[v] = buf.Bytes()
		weights[v] = flatWeights(source)
		return v
	}
	old = record()
	source.Neo.Retrain()
	fresh = record()
	if old == fresh {
		t.Fatal("retraining did not advance the source's version")
	}
	return snapshots, old, fresh, weights
}

// flatWeights copies every parameter of the system's live network.
func flatWeights(sys *neo.System) []float64 {
	var out []float64
	for _, p := range sys.Neo.Net.Params() {
		out = append(out, p.Value...)
	}
	return out
}

// TestSnapshotLoadDoesNotWaitForSearches pins that a snapshot load is a
// pointer store, not a lock: with one search parked mid-flight, SyncSnapshot
// returns at once, the next /optimize is answered under the new version, and
// the parked search — released afterwards — returns the plan the old weights
// choose, labelled with the old version. (With a write lock around an
// in-place load, SyncSnapshot waits for the parked search and every new
// request queues behind it.)
func TestSnapshotLoadDoesNotWaitForSearches(t *testing.T) {
	snapshots, old, fresh, _ := twoVersions(t)
	trainer := publishedVersions(t, snapshots, fresh)

	sys, queries := testSystem(t)
	defer sys.Close()
	gate := gateSearches(sys)
	srv := New(sys, Config{Replica: &ReplicaConfig{TrainerURL: trainer.URL}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Runs first on the way out, failed or not: ts.Close waits for the parked
	// request.
	released := false
	release := func() {
		if !released {
			released = true
			close(gate.release)
		}
	}
	defer release()
	if got := sys.Neo.NetVersion(); got != old {
		t.Fatalf("test setup: replica starts at version %d, want %d", got, old)
	}

	parkedQuery := queries[5]
	want, _, err := sys.Neo.Optimize(parkedQuery) // uncached: what the old weights choose
	if err != nil {
		t.Fatal(err)
	}
	optimize := func(q *neo.Query) (proto.OptimizeResponse, error) {
		var out proto.OptimizeResponse
		data, err := json.Marshal(specFor(q))
		if err != nil {
			return out, err
		}
		resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(data))
		if err != nil {
			return out, err
		}
		defer resp.Body.Close()
		return out, json.NewDecoder(resp.Body).Decode(&out)
	}
	type reply struct {
		resp proto.OptimizeResponse
		err  error
	}
	parked := make(chan reply, 1)
	gate.armed.Store(true)
	go func() {
		resp, err := optimize(parkedQuery)
		parked <- reply{resp, err}
	}()
	<-gate.started

	loaded := make(chan error, 1)
	go func() {
		v, err := srv.SyncSnapshot(context.Background(), 0)
		if err == nil && v != fresh {
			t.Errorf("SyncSnapshot reports version %d, want %d", v, fresh)
		}
		loaded <- err
	}()
	select {
	case err := <-loaded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SyncSnapshot waits for the search in flight")
	}
	select {
	case r := <-parked:
		t.Fatalf("test setup: the parked search finished before its release: %+v", r)
	default:
	}

	answered := make(chan reply, 1)
	go func() {
		resp, err := optimize(queries[0])
		answered <- reply{resp, err}
	}()
	select {
	case r := <-answered:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.resp.NetVersion != fresh {
			t.Errorf("request after the load answered under version %d, want %d", r.resp.NetVersion, fresh)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a request after the load queues behind the search in flight")
	}

	release()
	r := <-parked
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.resp.NetVersion != old {
		t.Errorf("parked search reports version %d, want %d (the snapshot it was pinned to)", r.resp.NetVersion, old)
	}
	if r.resp.Plan != want.String() {
		t.Errorf("parked search did not finish on the weights it started with:\n got  %s\n want %s", r.resp.Plan, want)
	}
}

// TestReplicaCheckpointDuringSnapshotLoad is the regression test for a
// replica's periodic checkpoint racing a snapshot load (run under -race):
// with the load decoding into the live network, SaveCheckpoint could encode
// half-replaced weights into a CRC-valid file. Every checkpoint written while
// loads alternate between two published versions must restore cleanly and
// carry exactly one version's weights, under that version's number.
func TestReplicaCheckpointDuringSnapshotLoad(t *testing.T) {
	snapshots, old, fresh, weights := twoVersions(t)
	trainer := publishedVersions(t, snapshots, fresh)

	sys, _ := testSystem(t)
	defer sys.Close()
	path := filepath.Join(t.TempDir(), "replica.ckpt")
	srv := New(sys, Config{LearnerConfig: LearnerConfig{CheckpointPath: path}, Replica: &ReplicaConfig{TrainerURL: trainer.URL}})
	defer srv.Close()
	verifier, _ := testSystem(t)
	defer verifier.Close()

	const rounds = 20
	loading := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			for _, v := range []uint64{fresh, old} {
				if _, err := srv.SyncSnapshot(context.Background(), v); err != nil {
					loading <- err
					return
				}
			}
		}
		loading <- nil
	}()
	for files := 0; ; files++ {
		if err := srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := verifier.LoadCheckpointFile(path); err != nil {
			t.Fatalf("checkpoint %d written during snapshot loads does not restore: %v", files, err)
		}
		want, ok := weights[verifier.Neo.NetVersion()]
		if !ok {
			t.Fatalf("checkpoint %d carries version %d, want %d or %d", files, verifier.Neo.NetVersion(), old, fresh)
		}
		for i, v := range flatWeights(verifier) {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("checkpoint %d (version %d): weight %d is %v, that version published %v — torn weights",
					files, verifier.Neo.NetVersion(), i, v, want[i])
			}
		}
		select {
		case err := <-loading:
			if err != nil {
				t.Fatal(err)
			}
			if files == 0 {
				t.Fatal("test vacuous: no checkpoint overlapped the snapshot loads")
			}
			return
		default:
		}
	}
}

package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neo/internal/cluster/proto"
	"neo/internal/serve"
	"neo/pkg/neo"
)

// TestThreeReplicaSoak is the distributed tier's acceptance test: a trainer
// and three replicas under sustained concurrent optimize+feedback load
// through the fleet client, with
//
//   - a mid-soak snapshot promotion through the rollout coordinator
//     (canary → quality check → fleet-wide) while traffic keeps flowing,
//   - identical plans from all three replicas for identical queries after
//     the promotion, and
//   - the trainer killed mid-soak with zero request failures: replicas
//     degrade to frozen-snapshot serving.
//
// Run under -race; every cross-component path (forwarding, snapshot load
// beside in-flight requests, ring routing, retry/failover) is concurrent here.
func TestThreeReplicaSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system soak")
	}
	// Trainer first, behind a handler indirection: replicas need its URL
	// before the Trainer value exists.
	type handlerBox struct{ h http.Handler }
	var trainerHandler atomic.Value
	trainerHandler.Store(handlerBox{http.NotFoundHandler()})
	trainerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trainerHandler.Load().(handlerBox).h.ServeHTTP(w, r)
	}))
	defer trainerSrv.Close()

	tsys, queries := testSystem(t, true)
	// KeepVersions is generous: retraining is fast under this load, and the
	// promotion target must still be published when the coordinator asks the
	// fleet to fetch it.
	trainer, err := NewTrainer(tsys, TrainerConfig{RetrainEvery: 8, KeepVersions: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	trainerHandler.Store(handlerBox{trainer})
	v0 := trainer.NetVersion()

	// Three replicas: same open configuration, no bootstrap — their weights
	// come from the trainer's snapshot.
	rpc := proto.Client{Attempts: 2, Backoff: 5 * time.Millisecond, Timeout: 10 * time.Second}
	var servers []*serve.Server
	var urls []string
	for i := 0; i < 3; i++ {
		rsys, _ := testSystem(t, false)
		srv := serve.New(rsys, serve.Config{Replica: &serve.ReplicaConfig{
			TrainerURL: trainerSrv.URL,
			FlushBatch: 8,
			Client:     rpc,
		}})
		if v, err := srv.SyncSnapshot(context.Background(), 0); err != nil || v != v0 {
			t.Fatalf("replica %d startup sync: version %d err %v, want %d", i, v, err, v0)
		}
		srv.Start()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		servers = append(servers, srv)
		urls = append(urls, ts.URL)
	}

	fleet, err := neo.NewClient(neo.ClientConfig{Replicas: urls, RPC: rpc})
	if err != nil {
		t.Fatal(err)
	}

	// Sustained concurrent load through the fleet client. Failures are
	// transport/5xx errors — the soak demands zero across every phase.
	var failures atomic.Int64
	var requests atomic.Int64
	loadUntil := func(stop <-chan struct{}) *sync.WaitGroup {
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := context.Background()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					spec := specFor(queries[(g+i)%len(queries)])
					resp, err := fleet.Optimize(ctx, &spec)
					requests.Add(1)
					if err != nil {
						failures.Add(1)
						t.Errorf("optimize failed: %v", err)
						return
					}
					if _, err := fleet.Feedback(ctx, &spec, 10+float64(i%4), 0); err != nil {
						failures.Add(1)
						t.Errorf("feedback failed: %v", err)
						return
					}
					_ = resp
				}
			}(g)
		}
		return &wg
	}

	stopA := make(chan struct{})
	wgA := loadUntil(stopA)
	// Wait for forwarded experience to trigger a retrain and publish a new
	// snapshot version.
	waitFor(t, 90*time.Second, "trainer to retrain and publish", func() bool {
		st := trainer.Stats()
		return st.Retrains >= 1 && st.NetVersion > v0
	})
	target := trainer.NetVersion()

	// Mid-soak promotion: canary on replica 0 while load keeps flowing,
	// quality check against the pre-canary window, then fleet-wide.
	coord := NewCoordinator(RolloutConfig{
		Replicas:     urls,
		CanaryWait:   300 * time.Millisecond,
		MinFeedbacks: 2,
		Client:       rpc,
	})
	promoted, err := coord.Rollout(nil, target)
	if err != nil {
		t.Fatalf("mid-soak rollout of version %d: %v", target, err)
	}
	if !promoted {
		t.Fatalf("version %d rolled back under identical traffic: %+v", target, coord.Status())
	}
	close(stopA)
	wgA.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d request failures during the live-trainer soak", failures.Load())
	}

	// Every replica serves the promoted version, and identical queries get
	// identical plans from all three.
	for i, u := range urls {
		var st proto.ReplicaStats
		if err := rpc.GetJSON(context.Background(), u+"/stats", &st); err != nil {
			t.Fatal(err)
		}
		if st.NetVersion != target {
			t.Fatalf("replica %d at version %d after promotion, want %d", i, st.NetVersion, target)
		}
	}
	for _, q := range queries[:3] {
		plans := make(map[string]bool)
		for _, u := range urls {
			var resp proto.OptimizeResponse
			if code := postJSON(t, u+"/optimize", specFor(q), &resp); code != http.StatusOK {
				t.Fatalf("optimize on %s: status %d", u, code)
			}
			if resp.NetVersion != target {
				t.Fatalf("plan served from version %d, want %d", resp.NetVersion, target)
			}
			plans[resp.Plan] = true
		}
		if len(plans) != 1 {
			t.Fatalf("replicas disagree on query %s: %v", q.ID, plans)
		}
	}

	// Kill the trainer mid-soak: replicas must keep serving the frozen
	// snapshot with zero request failures.
	trainerSrv.Close()
	stopB := make(chan struct{})
	wgB := loadUntil(stopB)
	time.Sleep(300 * time.Millisecond) // dead-trainer load across a forward retry delay
	close(stopB)
	wgB.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d request failures after the trainer died — replicas must degrade to frozen serving, not fail", failures.Load())
	}
	for i, u := range urls {
		var st proto.ReplicaStats
		if err := rpc.GetJSON(context.Background(), u+"/stats", &st); err != nil {
			t.Fatal(err)
		}
		if st.NetVersion != target {
			t.Fatalf("replica %d drifted to version %d with the trainer dead", i, st.NetVersion)
		}
	}
	if requests.Load() == 0 {
		t.Fatal("soak vacuous: no requests issued")
	}
	// Graceful close: the drain's delivery attempts fail fast against the
	// dead trainer and must not hang or error the close.
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

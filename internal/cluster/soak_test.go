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
//   - snapshot promotions through the trainer's own rollout coordinator
//     (canary → quality check → fleet-wide) while traffic keeps flowing and
//     the trainer keeps publishing,
//   - identical plans from all three replicas for identical queries once
//     the last version is rolled out, and
//   - the trainer killed mid-soak with zero request failures: replicas
//     degrade to frozen-snapshot serving.
//
// Run under -race; every cross-component path (forwarding, snapshot load
// beside in-flight requests, ring routing, retry/failover) is concurrent here.
func TestThreeReplicaSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system soak")
	}
	// Trainer server first, behind a handler indirection: replicas need its
	// URL before the Trainer value exists, and the Trainer needs theirs.
	type handlerBox struct{ h http.Handler }
	var trainerHandler atomic.Value
	trainerHandler.Store(handlerBox{http.NotFoundHandler()})
	trainerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trainerHandler.Load().(handlerBox).h.ServeHTTP(w, r)
	}))
	defer trainerSrv.Close()

	// Three replicas: same open configuration, no bootstrap — their weights
	// come from the trainer's snapshot.
	rpc := proto.Client{Attempts: 2, Backoff: 5 * time.Millisecond, Timeout: 10 * time.Second}
	var servers []*serve.Server
	var urls []string
	for i := 0; i < 3; i++ {
		rsys, _ := testSystem(t, false)
		srv := serve.New(rsys, serve.Config{Replica: &serve.ReplicaConfig{
			TrainerURL: trainerSrv.URL,
			Client:     rpc,
		}})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		servers = append(servers, srv)
		urls = append(urls, ts.URL)
	}

	// Every published version is rolled out to the fleet, the first replica
	// carrying the canary.
	tsys, queries := testSystem(t, true)
	trainer, err := NewTrainer(tsys, TrainerConfig{RetrainEvery: 8, Rollout: &RolloutConfig{
		Replicas:     urls,
		CanaryWait:   300 * time.Millisecond,
		MinFeedbacks: 2,
		Client:       rpc,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	trainerHandler.Store(handlerBox{trainer})
	v0 := trainer.NetVersion()
	for i, srv := range servers {
		if v, err := srv.SyncSnapshot(context.Background(), 0); err != nil || v != v0 {
			t.Fatalf("replica %d startup sync: version %d err %v, want %d", i, v, err, v0)
		}
		srv.Start()
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

	// Mid-soak promotion: forwarded experience triggers a retrain, and the
	// coordinator canaries the published version on replica 0 while load
	// keeps flowing, checks it against the pre-canary window, then promotes
	// it fleet-wide.
	stopA := make(chan struct{})
	wgA := loadUntil(stopA)
	var rollout proto.RolloutStatus
	waitFor(t, 90*time.Second, "a retrained version to be promoted", func() bool {
		rollout = *trainer.Stats().Rollout
		return rollout.Promotions >= 1 && rollout.Promoted > v0
	})
	// Still under load: the promotion reached every replica. Versions only
	// grow, and a later rollout may already have moved a replica past it.
	behind := make([]uint64, len(urls))
	for i, u := range urls {
		var st proto.ReplicaStats
		if err := rpc.GetJSON(context.Background(), u+"/stats", &st); err != nil {
			t.Error(err)
		}
		if st.NetVersion < rollout.Promoted {
			behind[i] = st.NetVersion
		}
	}
	close(stopA)
	wgA.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d request failures during the live-trainer soak", failures.Load())
	}
	if rollout.Rollbacks != 0 {
		t.Fatalf("rollout rolled back under identical traffic: %+v", rollout)
	}
	for i, v := range behind {
		if v != 0 {
			t.Fatalf("replica %d at version %d after the promotion of %d under load", i, v, rollout.Promoted)
		}
	}

	// Quiesce: Close waits for the round and the rollout in flight and
	// starts no more. Then roll the latest version out by hand, so the fleet
	// settles on one version: its automatic rollout may have been refused as
	// busy or cut short by Close. With no traffic the canary window stays
	// empty and the version is promoted without a quality verdict.
	if err := trainer.Close(); err != nil {
		t.Fatal(err)
	}
	target := trainer.NetVersion()
	if promoted, err := trainer.rollout.Rollout(nil, target); err != nil || !promoted {
		t.Fatalf("idle rollout of version %d: promoted=%v err=%v", target, promoted, err)
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

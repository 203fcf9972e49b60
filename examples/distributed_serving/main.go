// Distributed serving: a trainer, three replicas, a canaried snapshot
// promotion and a trainer outage — the whole snapshot lifecycle in one
// process.
//
// The topology mirrors a production deployment of the learned optimizer:
// stateless neo-serve replicas answer /optimize and /feedback from a
// read-only snapshot while a single neo-trainer aggregates their forwarded
// experience, retrains, and publishes new weights as versioned NEOCKPT1
// containers. Here every daemon runs in-process on httptest listeners so
// the example needs no free ports and no coordination; the CLI equivalent
// is in OPERATIONS.md at the repo root.
//
// Run with:
//
//	go run ./examples/distributed_serving
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"neo/internal/cluster"
	"neo/internal/cluster/proto"
	"neo/internal/serve"
	"neo/pkg/neo"
)

// open assembles one small system. Every member of the tier must share this
// configuration: a snapshot carries weights and experience, but the
// synthetic database is regenerated from the seed, and encoding mismatches
// are rejected at load time.
func open(bootstrap bool) (*neo.System, []*neo.Query, error) {
	sys, err := neo.Open(neo.Config{
		Dataset:          "imdb",
		Engine:           "postgres",
		Encoding:         neo.OneHot,
		Scale:            0.15,
		Seed:             7,
		SearchExpansions: 24,
		Episodes:         1,
		ValueNet: &neo.ValueNetConfig{
			QueryLayers:  []int{16, 8},
			TreeChannels: []int{8, 8},
			HeadLayers:   []int{8},
			LearningRate: 2e-3,
			UseLayerNorm: true,
			Seed:         3,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	wl, err := sys.GenerateWorkload(6)
	if err != nil {
		return nil, nil, err
	}
	if bootstrap {
		// Only the trainer bootstraps from the expert; replicas get their
		// weights from its snapshot.
		if err := sys.Bootstrap(wl.Queries[:4]); err != nil {
			return nil, nil, err
		}
	}
	return sys, wl.Queries, nil
}

func spec(q *neo.Query) neo.QuerySpec {
	s := neo.QuerySpec{Relations: q.Relations}
	for _, j := range q.Joins {
		s.Joins = append(s.Joins, neo.JoinSpec{
			Left:  j.LeftTable + "." + j.LeftColumn,
			Right: j.RightTable + "." + j.RightColumn,
		})
	}
	return s
}

func main() {
	// ---- 1. The learner: bootstrap, wrap in a Trainer, serve over HTTP.
	// NewTrainer publishes the bootstrapped weights as snapshot version 1
	// before the first request arrives.
	tsys, queries, err := open(true)
	if err != nil {
		log.Fatal(err)
	}
	defer tsys.Close()
	trainer, err := cluster.NewTrainer(tsys, cluster.TrainerConfig{RetrainEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()
	trainerSrv := httptest.NewServer(trainer)
	v0 := trainer.NetVersion()
	fmt.Printf("trainer up at %s, published snapshot version %d\n", trainerSrv.URL, v0)

	// ---- 2. Three replicas. Each pulls the trainer's snapshot at startup,
	// then serves from it read-only, forwarding /feedback experience.
	var urls []string
	var servers []*serve.Server
	for i := 0; i < 3; i++ {
		rsys, _, err := open(false)
		if err != nil {
			log.Fatal(err)
		}
		defer rsys.Close()
		srv := serve.New(rsys, serve.Config{Replica: &serve.ReplicaConfig{TrainerURL: trainerSrv.URL}})
		v, err := srv.SyncSnapshot(context.Background(), 0)
		if err != nil {
			log.Fatal(err)
		}
		srv.Start()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		servers = append(servers, srv)
		urls = append(urls, ts.URL)
		fmt.Printf("replica %d up at %s, serving snapshot version %d\n", i, ts.URL, v)
	}

	// ---- 3. The fleet client: consistent-hash sharding with failover. One
	// query structure always routes to the same replica, so the fleet's plan
	// caches partition the workload.
	fleet, err := neo.NewClient(neo.ClientConfig{Replicas: urls})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range queries[:3] {
		fmt.Printf("query %s routes to %s\n", q.ID, fleet.Route(ptr(spec(q))))
	}

	// ---- 4. Traffic. Feedback flows replica → trainer; at RetrainEvery
	// ingested entries the trainer retrains in the background and publishes
	// the result as a new snapshot version. The replicas keep serving the
	// old version — nothing adopts new weights implicitly.
	for i := 0; trainer.Stats().Retrains == 0; i++ {
		q := queries[i%len(queries)]
		s := spec(q)
		resp, err := fleet.Optimize(ctx, &s)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := fleet.Feedback(ctx, &s, resp.Score, 0); err != nil {
			log.Fatal(err)
		}
		// The replica forwards the entry as it accepts it, in the
		// background; wait until the trainer has ingested it.
		for trainer.Stats().Accepted < uint64(i+1) {
			time.Sleep(time.Millisecond)
		}
	}
	for trainer.NetVersion() == v0 {
		time.Sleep(5 * time.Millisecond)
	}
	target := trainer.NetVersion()
	fmt.Printf("\ntrainer retrained and published version %d (replicas still on %d)\n",
		target, v0)

	// ---- 5. Rollout: canary the new version on the first replica, compare
	// its plan-quality window against the pre-canary baseline, then promote
	// fleet-wide. A regression would roll the canary back instead and bar
	// the version from re-canarying.
	coord := cluster.NewCoordinator(cluster.RolloutConfig{
		Replicas:     urls,
		CanaryWait:   300 * time.Millisecond,
		MinFeedbacks: 1,
	})
	promoted, err := coord.Rollout(nil, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout of version %d: promoted=%v status=%+v\n", target, promoted, coord.Status())

	// After promotion all replicas serve the same version — and therefore
	// bit-identical plans for identical queries.
	rpc := proto.Client{}
	plans := map[string]bool{}
	for _, u := range urls {
		var st proto.ReplicaStats
		if err := rpc.GetJSON(ctx, u+"/stats", &st); err != nil {
			log.Fatal(err)
		}
		var resp neo.OptimizeResponse
		if err := rpc.PostJSON(ctx, u+"/optimize", spec(queries[0]), &resp); err != nil {
			log.Fatal(err)
		}
		plans[resp.Plan] = true
		fmt.Printf("  %s: version %d, plan %q\n", u, st.NetVersion, resp.Plan)
	}
	fmt.Printf("identical plans across the fleet: %v\n", len(plans) == 1)

	// ---- 6. Trainer outage. Replicas degrade to frozen-snapshot serving:
	// requests keep succeeding on the promoted weights, experience queues
	// (bounded, oldest dropped) until the trainer returns.
	trainerSrv.Close()
	s := spec(queries[1])
	if _, err := fleet.Optimize(ctx, &s); err != nil {
		log.Fatal(err)
	}
	if _, err := fleet.Feedback(ctx, &s, 12, 0); err != nil {
		log.Fatal(err)
	}
	stats := fleet.Stats(ctx)
	for u, st := range stats {
		if st.Cluster != nil {
			fmt.Printf("trainer dead: %s still serving version %d (queued %d, forward errors %d)\n",
				u, st.NetVersion, st.Cluster.Queued, st.Cluster.ForwardErrors)
		}
	}

	// Graceful close: drain the forwarding queue (fails fast here — the
	// trainer is gone) and stop serving.
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("fleet shut down cleanly")
}

func ptr[T any](v T) *T { return &v }

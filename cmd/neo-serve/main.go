// Command neo-serve runs the learned optimizer as a long-lived
// online-learning HTTP daemon: it serves plans from the value-network
// snapshot and plan cache (POST /optimize), ingests observed latencies as
// experience (POST /feedback) and retrains in the background every N
// feedbacks, reports serving counters (GET /stats), and checkpoints the
// learned state periodically and on SIGINT/SIGTERM so a warm restart serves
// bit-identical plans.
//
// Usage:
//
//	neo-serve -addr :8080 -checkpoint neo.ckpt
//	neo-serve -dataset corp -engine engine-m -retrain-every 32
//
// On startup the daemon restores -load (or, if that is unset, an existing
// -checkpoint file); with neither present it bootstraps from the
// PostgreSQL-profile expert over a generated workload.
//
// Two cluster modes turn the daemon into part of the distributed serving
// tier (see OPERATIONS.md):
//
//	neo-serve -trainer http://trainer:7790        # replica: snapshots from
//	                                              # the trainer, feedback
//	                                              # forwarded to it
//	neo-serve -route http://r1:8080,http://r2:8080  # thin router: shard
//	                                              # traffic over replicas
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"neo/internal/cluster"
	"neo/internal/cluster/proto"
	"neo/internal/serve"
	"neo/pkg/neo"
)

// options is neo-serve's parsed command line.
type options struct {
	daemon serve.Daemon
	cfg    serve.Config
	repl   serve.ReplicaConfig
	route  string
}

// registerFlags declares every neo-serve flag on fs. OPERATIONS.md's flag
// tables are checked against it by this package's test.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{daemon: serve.Daemon{
		Name:   "neo-serve",
		Addr:   ":8080",
		System: neo.Config{ScorePrecision: "float32"},
	}}
	o.daemon.RegisterFlags(fs)
	serve.RegisterFlags(fs, &o.cfg, &o.repl)
	fs.StringVar(&o.route, "route", "", "comma-separated replica base URLs; runs the thin consistent-hash router instead of a serving daemon (no database is opened)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	d := &o.daemon

	if o.route != "" {
		// The thin consistent-hash router: no database, no network weights —
		// just SpecKey sharding and ring-order failover over the replica fleet.
		fleet := proto.SplitURLs(o.route)
		rt, err := cluster.NewRouter(fleet, proto.Client{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("neo-serve: routing over %d replicas\n", len(fleet))
		if err := d.Serve(rt); err != nil {
			fatal(err)
		}
		return
	}

	// A replica cold start skips bootstrapping: the trainer's snapshot pulled
	// below delivers trained weights into the fresh network.
	replica := o.repl.TrainerURL != ""
	sys, err := d.Open(!replica)
	if err != nil {
		fatal(err)
	}
	o.cfg.CheckpointPath, o.cfg.CheckpointEvery = d.Checkpoint, d.CheckpointEvery
	if replica {
		o.repl.TrainerURL = strings.TrimSuffix(o.repl.TrainerURL, "/")
		o.cfg.Replica = &o.repl
	}
	srv := serve.New(sys, o.cfg)
	if replica {
		// Join the fleet at the trainer's published snapshot. Best effort: a
		// trainer that is down at startup leaves the replica serving from its
		// current (restored or untrained) weights until the first successful
		// /admin/snapshot — degraded, not down.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if v, err := srv.SyncSnapshot(ctx, 0); err != nil {
			fmt.Fprintf(os.Stderr, "neo-serve: warning: snapshot sync from %s failed (%v); serving local weights until the trainer returns\n", o.repl.TrainerURL, err)
		} else {
			fmt.Printf("neo-serve: replica of %s, serving snapshot version %d\n", o.repl.TrainerURL, v)
		}
		cancel()
	}
	srv.Start()
	if err := d.Serve(srv, srv.Close, sys.Close); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neo-serve:", err)
	os.Exit(1)
}

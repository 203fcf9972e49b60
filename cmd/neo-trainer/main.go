// Command neo-trainer runs the learning half of the distributed serving
// tier: it owns the experience pool and the training loop for a fleet of
// neo-serve replicas. Replicas forward the latencies their /feedback
// endpoints observe as CRC-checked experience containers (POST /experience);
// every RetrainEvery ingested entries the trainer retrains in the background
// and publishes the new value network as a versioned NEOCKPT1 snapshot (GET
// /snapshot). With -replicas set, a rollout coordinator canaries each new
// snapshot on the first replica, compares plan quality via its /stats, then
// promotes fleet-wide — or rolls back and bars the version on regression.
//
// Usage:
//
//	neo-trainer -addr :7790 -checkpoint trainer.ckpt
//	neo-trainer -replicas http://r1:8080,http://r2:8080,http://r3:8080
//
// The trainer must be opened with the same -dataset/-encoding/-seed (and
// value-network architecture) as its replicas: snapshots restore weights
// into an identically shaped network. See OPERATIONS.md for the full
// deployment guide.
package main

import (
	"flag"
	"fmt"
	"os"

	"neo/internal/cluster"
	"neo/internal/serve"
)

func main() {
	d := serve.Daemon{Name: "neo-trainer", Addr: ":7790"}
	var cfg cluster.TrainerConfig
	var rollout cluster.RolloutConfig
	d.RegisterFlags(flag.CommandLine)
	cluster.RegisterTrainerFlags(flag.CommandLine, &cfg, &rollout)
	flag.Parse()

	sys, err := d.Open(true)
	if err != nil {
		fatal(err)
	}
	cfg.CheckpointPath, cfg.CheckpointEvery = d.Checkpoint, d.CheckpointEvery
	if len(rollout.Replicas) > 0 {
		cfg.Rollout = &rollout
		fmt.Printf("neo-trainer: rollout coordinator over %d replicas (canary %s)\n", len(rollout.Replicas), rollout.Replicas[0])
	}
	trainer, err := cluster.NewTrainer(sys, cfg)
	if err != nil {
		fatal(err)
	}
	trainer.Start()
	fmt.Printf("neo-trainer: published snapshot version %d\n", trainer.NetVersion())
	if err := d.Serve(trainer, trainer.Close, sys.Close); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neo-trainer:", err)
	os.Exit(1)
}

package serve

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neo/pkg/neo"
)

// Daemon is what the neo-serve and neo-trainer binaries share of a daemon's
// command line and process lifecycle: the system and start-up flags, the
// restore-else-bootstrap boot, and listen-until-signal with graceful
// shutdown. Fill in Name, Addr and any per-binary System defaults, then call
// RegisterFlags.
type Daemon struct {
	// Name prefixes every log line ("neo-serve").
	Name string
	// System is the configuration the daemon opens (see
	// neo.Config.RegisterFlags for how its values become flag defaults).
	System neo.Config
	// Addr is the HTTP listen address.
	Addr string
	// Queries is the bootstrap workload size of a cold start.
	Queries int
	// Load and Checkpoint name the checkpoint files restored on startup
	// (Load wins; Checkpoint only when it exists); Checkpoint is also where
	// the daemon writes every CheckpointEvery and on shutdown.
	Load, Checkpoint string
	CheckpointEvery  time.Duration
}

// RegisterFlags registers the system flags and the daemon flags on fs.
func (d *Daemon) RegisterFlags(fs *flag.FlagSet) {
	d.System.RegisterFlags(fs)
	fs.StringVar(&d.Addr, "addr", d.Addr, "HTTP listen address")
	fs.IntVar(&d.Queries, "queries", 16, "bootstrap workload size (cold start only)")
	fs.StringVar(&d.Load, "load", "", "checkpoint file to restore on startup (overrides -checkpoint for loading)")
	fs.StringVar(&d.Checkpoint, "checkpoint", "", "checkpoint file to write periodically and on shutdown (also restored on startup when present and -load is unset)")
	fs.DurationVar(&d.CheckpointEvery, "checkpoint-interval", 5*time.Minute, "periodic checkpoint interval (requires -checkpoint)")
}

// Open assembles the system and brings it to a servable state: a warm start
// from -load or an existing -checkpoint, else — when bootstrap is set — a
// cold start from the PostgreSQL-profile expert over a generated workload. A
// replica passes bootstrap false: its trainer's snapshot delivers the
// weights.
func (d *Daemon) Open(bootstrap bool) (*neo.System, error) {
	sys, err := neo.Open(d.System)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: dataset=%s engine=%s encoding=%s rows=%d\n",
		d.Name, sys.Config.Dataset, sys.Config.Engine, sys.Config.Encoding, sys.DB.TotalRows())
	restored, err := sys.WarmStart(d.Load, d.Checkpoint)
	switch {
	case err != nil:
		return nil, err
	case restored != "":
		fmt.Printf("%s: warm start from %s (net version %d, %d experience entries)\n",
			d.Name, restored, sys.Neo.NetVersion(), sys.Neo.Experience.Len())
	case bootstrap:
		fmt.Printf("%s: cold start, bootstrapping from the expert over %d queries ...\n", d.Name, d.Queries)
		wl, err := sys.GenerateWorkload(d.Queries)
		if err != nil {
			return nil, err
		}
		if err := sys.Bootstrap(wl.Queries); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// Serve listens on Addr until SIGINT/SIGTERM, then drains in-flight requests
// (bounded at 30s) and runs the closers in order — the daemon's own Close,
// which writes the final checkpoint, then the system's. A listener that
// fails (address in use) or a closer's error is returned.
func (d *Daemon) Serve(h http.Handler, closers ...func() error) error {
	httpSrv := &http.Server{Addr: d.Addr, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("%s: listening on %s\n", d.Name, d.Addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("%s: %v, shutting down ...\n", d.Name, sig)
	case err := <-errCh:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", d.Name, err)
	}
	for _, c := range closers {
		if err := c(); err != nil {
			return err
		}
	}
	if d.Checkpoint != "" && len(closers) > 0 {
		fmt.Printf("%s: final checkpoint written to %s\n", d.Name, d.Checkpoint)
	}
	return nil
}

// RegisterFlags registers neo-serve's own flags — the learning cadence and
// the replica-mode knobs — on fs. Replica mode is on when repl.TrainerURL is
// set after parsing; the caller then points cfg.Replica at repl.
func RegisterFlags(fs *flag.FlagSet, cfg *Config, repl *ReplicaConfig) {
	fs.IntVar(&cfg.RetrainEvery, "retrain-every", 16, "trigger a background retraining round every N feedbacks (0 disables)")
	fs.IntVar(&cfg.MaxExperience, "max-experience", 0, "experience-pool cap; oldest entries are dropped beyond it (0 = default 100000, negative = unbounded)")
	fs.StringVar(&repl.TrainerURL, "trainer", "", "trainer base URL; switches the daemon into replica mode (no local training, feedback forwarded, snapshots pulled)")
	fs.IntVar(&repl.FlushBatch, "flush-batch", 0, "replica mode: entries per forwarded experience container (0 = default 64)")
	fs.IntVar(&repl.MaxQueue, "max-queue", 0, "replica mode: forwarding-queue bound; oldest entries are dropped beyond it when the trainer is down (0 = default 4096)")
}

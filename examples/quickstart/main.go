// Quickstart: assemble a Neo system over the correlated IMDB-like database,
// bootstrap it from the PostgreSQL-profile expert optimizer, refine it for a
// few reinforcement-learning episodes, and compare its plans against the
// engine's native optimizer on held-out queries.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"neo/pkg/neo"
)

func main() {
	// Open assembles the whole substrate: synthetic database, statistics,
	// row-vector embedding, simulated engine, classical optimizers and an
	// untrained Neo.
	sys, err := neo.Open(neo.Config{
		Dataset:  "imdb",
		Engine:   "postgres",
		Encoding: neo.RVector,
		Scale:    0.3,
		Seed:     42,
		Episodes: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database ready: %d rows across %d tables\n", sys.DB.TotalRows(), sys.Catalog.NumRelations())

	// A representative sample workload, split 80/20 as in the paper.
	wl, err := sys.GenerateWorkload(20)
	if err != nil {
		log.Fatal(err)
	}
	train, test := wl.Split(0.8, 1)
	fmt.Printf("workload: %d training queries, %d held-out queries\n", len(train), len(test))

	// Phase 1 (Expertise Collection + Model Building): execute the expert's
	// plans and train the value network on the resulting experience.
	fmt.Println("bootstrapping from the expert optimizer ...")
	if err := sys.Bootstrap(train); err != nil {
		log.Fatal(err)
	}

	// Phase 2 (Model Refinement): each episode, Neo plans every training
	// query with its value network + best-first search, executes the plans,
	// and learns from the observed latencies.
	fmt.Println("refining ...")
	episodes, err := sys.Train(train)
	if err != nil {
		log.Fatal(err)
	}
	for _, ep := range episodes {
		fmt.Printf("  episode %d: normalized latency %.3f\n", ep.Episode, ep.NormalizedLatency)
	}

	// Held-out comparison against the engine's native optimizer.
	fmt.Println("\nheld-out queries (simulated ms):")
	var neoTotal, nativeTotal float64
	for _, q := range test {
		neoLat, nativeLat, err := sys.Compare(q)
		if err != nil {
			log.Fatal(err)
		}
		neoTotal += neoLat
		nativeTotal += nativeLat
		fmt.Printf("  %-12s neo=%8.2f native=%8.2f\n", q.ID, neoLat, nativeLat)
	}
	fmt.Printf("\nrelative performance (neo/native, lower is better): %.3f\n", neoTotal/nativeTotal)

	// Persistence: checkpoint the trained optimizer, restore it into a
	// freshly opened system, and confirm the restored system serves the
	// same plan — continuous learning survives restarts.
	ckpt := filepath.Join(os.TempDir(), "neo-quickstart.ckpt")
	if err := sys.SaveCheckpointFile(ckpt); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(ckpt)
	fmt.Printf("\ncheckpoint written to %s\n", ckpt)

	restored, err := neo.Open(sys.Config) // same config: same substrate
	if err != nil {
		log.Fatal(err)
	}
	if err := restored.LoadCheckpointFile(ckpt); err != nil {
		log.Fatal(err)
	}
	q := test[0]
	before, _, err := sys.Optimize(q)
	if err != nil {
		log.Fatal(err)
	}
	after, _, err := restored.Optimize(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan for %s before restart: %s\n", q.ID, before)
	fmt.Printf("plan for %s after restart:  %s\n", q.ID, after)
	if before.String() == after.String() {
		fmt.Println("warm restart serves the identical plan.")
	}

	// Reduced-precision serving: the same checkpoint can be served through
	// the float32 inference kernels (Config.ScorePrecision, or the CLIs'
	// -score-precision flag — neo-serve defaults to float32). Training
	// always stays float64; only the frozen serving snapshot converts, and
	// float32 plan choices are pinned identical to float64 by the test
	// suite.
	f32cfg := sys.Config
	f32cfg.ScorePrecision = "float32"
	fast, err := neo.Open(f32cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := fast.LoadCheckpointFile(ckpt); err != nil {
		log.Fatal(err)
	}
	info := fast.SnapshotInfo()
	fmt.Printf("\nserving precision %s: %.0f KiB of inference panels (float64 params: %.0f KiB)\n",
		info.Precision, float64(info.PanelBytes)/1024, float64(info.ParamBytes)/1024)
	f32Plan, _, err := fast.Optimize(q)
	if err != nil {
		log.Fatal(err)
	}
	if f32Plan.String() == before.String() {
		fmt.Println("float32 serving chooses the identical plan.")
	}

	// From here the system scales out as a service: cmd/neo-serve exposes
	// /optimize + /feedback over HTTP, and a replicated fleet with a shared
	// trainer is a flag away — see OPERATIONS.md at the repo root and
	// examples/distributed_serving for the full tour.
	fmt.Println("\nnext: go run ./examples/distributed_serving (see OPERATIONS.md)")
}

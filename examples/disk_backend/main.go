// Disk backend: run the learned optimizer against real storage instead of
// the simulated cost model.
//
// With Config.Engine "disk" the synthetic database is materialized into
// slotted-page heap files, the executor's operators read them as 8 KiB pages
// through a buffer pool, and the latency fed into Neo's
// experience is the measured wall clock — including effects no cost model
// prices, like whether the pages a join touches are resident in the pool.
// Plans and result cardinalities are identical to the simulated engine's
// (the test suite pins sim/disk parity per join operator); only the latency
// signal changes.
//
// Run with:
//
//	go run ./examples/disk_backend
package main

import (
	"fmt"
	"log"

	"neo/pkg/neo"
)

func main() {
	// DataDir "" materializes into a fresh temp directory. Point it at a
	// directory written by `neo-datagen -out` to skip materialization, or at
	// any persistent path to reuse the heap files across runs.
	sys, err := neo.Open(neo.Config{
		Dataset:      "imdb",
		Engine:       "disk",
		Encoding:     neo.Histogram,
		Scale:        0.3,
		Seed:         42,
		Episodes:     3,
		BufferPoolMB: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	fmt.Printf("database on disk: %d rows across %d tables\n",
		sys.DB.TotalRows(), sys.Catalog.NumRelations())

	wl, err := sys.GenerateWorkload(16)
	if err != nil {
		log.Fatal(err)
	}
	train, test := wl.Split(0.8, 1)

	// The same plan gets cheaper the second time: the first execution pulls
	// its pages from disk, the second finds them resident in the buffer pool.
	p, err := sys.ExpertPlan(test[0])
	if err != nil {
		log.Fatal(err)
	}
	cold, err := sys.Execute(p)
	if err != nil {
		log.Fatal(err)
	}
	hot, err := sys.Execute(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same plan, cold pool: %.3f ms, warm pool: %.3f ms\n", cold, hot)

	// Bootstrap and refine exactly as on the simulated engine — except every
	// experience entry now carries a measured latency.
	fmt.Println("bootstrapping from the expert, then refining ...")
	if err := sys.Bootstrap(train); err != nil {
		log.Fatal(err)
	}
	episodes, err := sys.Train(train)
	if err != nil {
		log.Fatal(err)
	}
	for _, ep := range episodes {
		fmt.Printf("  episode %d: normalized latency %.3f\n", ep.Episode, ep.NormalizedLatency)
	}

	fmt.Println("\nheld-out queries (measured ms):")
	for _, q := range test {
		neoLat, nativeLat, err := sys.Compare(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s neo=%8.3f native=%8.3f\n", q.ID, neoLat, nativeLat)
	}

	// Every page the executors touched went through the buffer pool.
	if st, ok := sys.StorageStats(); ok {
		fmt.Printf("\nbuffer pool: %s\n", st.String())
	}
}

package repro

import (
	"testing"

	"neo/internal/bench"
)

// BenchmarkServing measures the serving tier on 8 concurrent requests
// stampeding over 2 hot query structures (the cache-cold window right after
// a retraining swap): 8 private searches, where every request pays its own
// search against the shared snapshot, versus the snapshot's single-flight
// plan cache, where one search per structure runs and the other requests wait
// for its plan — at float64 and at float32 (the neo-serve default). Cached and private plans are identical (checked before
// measuring, and locked down by the core and serve test suites). The
// committed BENCH_serve.json baseline and CI's bench-gate enforce that the
// cache stays >= 1.5x over private searches at both precisions.
//
// Verify the speedup with:
//
//	go test -bench BenchmarkServing -run '^$' .
func BenchmarkServing(b *testing.B) {
	private, cached, privateF32, cachedF32 := bench.ServingBenchmarks()
	b.Run("private", private)
	b.Run("cached", cached)
	b.Run("private-f32", privateF32)
	b.Run("cached-f32", cachedF32)
}

package repro

import (
	"testing"

	"neo/internal/bench"
)

// BenchmarkBatchedTraining measures one gradient step over a 32-sample
// minibatch shaped like a retraining step (a distinct, ~5 % non-zero 761-wide
// query encoding per sample): the per-sample tape path versus the shared
// batched forward+backward pass, serially and sharded over data-parallel
// gradient workers (the worker variants produce bit-identical weights and
// only buy wall-clock time on multi-core hardware). The committed
// BENCH_train.json baseline and CI's bench-gate hold the same three rows.
//
// Verify the speedup with:
//
//	go test -bench BenchmarkBatchedTraining -run '^$' .
func BenchmarkBatchedTraining(b *testing.B) {
	perSample, batched, workers := bench.TrainingBenchmarks()
	b.Run("per-sample", perSample)
	b.Run("batched", batched)
	b.Run("batched-workers=4", workers)
}

package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// setProcs sets GOMAXPROCS — the width of every worker pool — to procs for
// the rest of the test and restores the previous value when the test ends.
func setProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestRetrainDeterministicAcrossTrainWorkers pins the tentpole determinism
// contract at the core level: identically-seeded training runs produce
// bit-identical value-network weights whether minibatch gradients are
// computed serially or sharded over many workers, through bootstrap and a
// full episode.
func TestRetrainDeterministicAcrossTrainWorkers(t *testing.T) {
	serialRig := newRig(t, "postgres")
	parallelRig := newRig(t, "postgres")
	serial, parallel := serialRig.neo, parallelRig.neo

	train, _ := serialRig.wl.Split(0.8, 1)
	trainP, _ := parallelRig.wl.Split(0.8, 1)
	setProcs(t, 1)
	if err := serial.Bootstrap(train, serialRig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	ss, err := serial.RunEpisode(1, train)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	if err := parallel.Bootstrap(trainP, parallelRig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	ps, err := parallel.RunEpisode(1, trainP)
	if err != nil {
		t.Fatal(err)
	}
	if ss.TrainLoss != ps.TrainLoss {
		t.Errorf("TrainLoss differs: serial %v, 8 workers %v (must be bit-identical)", ss.TrainLoss, ps.TrainLoss)
	}
	sp, pp := serial.Net.Params(), parallel.Net.Params()
	if len(sp) != len(pp) {
		t.Fatalf("parameter counts differ: %d vs %d", len(sp), len(pp))
	}
	for i := range sp {
		for j := range sp[i].Value {
			if sp[i].Value[j] != pp[i].Value[j] {
				t.Fatalf("param %s[%d]: serial %v, 8 workers %v (weights must be bit-identical)",
					sp[i].Name, j, sp[i].Value[j], pp[i].Value[j])
			}
		}
	}
}

// TestConcurrentPlanningDuringParallelTraining exercises plan search racing
// a multi-worker TrainBatch inside a background retraining round (run with
// -race): searches must keep scoring with the pinned snapshot while the
// gradient workers shard minibatches over the live network.
func TestConcurrentPlanningDuringParallelTraining(t *testing.T) {
	setProcs(t, 4)
	rig := newRig(t, "postgres")
	n := rig.neo
	train, _ := rig.wl.Split(0.8, 1)
	if err := n.Bootstrap(train, rig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunEpisode(1, train); err != nil {
		t.Fatal(err)
	}

	done := retrainInBackground(n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, q := range train[:3] {
					if _, _, err := n.Optimize(q); err != nil {
						t.Errorf("concurrent Optimize during parallel training: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if loss := <-done; math.IsNaN(loss) {
		t.Errorf("parallel training round returned NaN loss")
	}
}

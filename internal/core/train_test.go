package core

import (
	"math"
	"sync"
	"testing"
)

// neoWithTrainWorkers rebuilds the rig's Neo with an explicit gradient
// worker count (the rig keeps its own engine, so noise streams stay
// independent between rigs).
func neoWithTrainWorkers(rig *testRig, workers int) *Neo {
	cfg := rig.neo.Config
	cfg.TrainWorkers = workers
	return New(rig.eng, rig.feat, cfg)
}

// TestRetrainDeterministicAcrossTrainWorkers pins the tentpole determinism
// contract at the core level: identically-seeded training runs produce
// bit-identical value-network weights whether minibatch gradients are
// computed serially or sharded over many workers, through bootstrap and a
// full episode.
func TestRetrainDeterministicAcrossTrainWorkers(t *testing.T) {
	serialRig := newRig(t, "postgres")
	parallelRig := newRig(t, "postgres")
	serial := neoWithTrainWorkers(serialRig, -1)
	parallel := neoWithTrainWorkers(parallelRig, 8)

	train, _ := serialRig.wl.Split(0.8, 1)
	trainP, _ := parallelRig.wl.Split(0.8, 1)
	if err := serial.Bootstrap(train, serialRig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Bootstrap(trainP, parallelRig.expertFunc()); err != nil {
		t.Fatal(err)
	}
	ss, err := serial.RunEpisode(1, train)
	if err != nil {
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
	rig := newRig(t, "postgres")
	n := neoWithTrainWorkers(rig, 4)
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

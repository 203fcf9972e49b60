package core

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"neo/internal/valuenet"
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

// allTrainingSamples is the sample builder Retrain used before it built only
// the samples it keeps, verbatim: every construction state of every entry,
// in entry order. Retrain then shuffled them all with the training rng and
// kept the first MaxTrainSamples.
func allTrainingSamples(n *Neo) []valuenet.Sample {
	var samples []valuenet.Sample
	encodings := make(map[string][]float64)
	for _, entry := range n.Experience.Entries() {
		qEnc, ok := encodings[entry.Query.ID]
		if !ok {
			qEnc = n.Featurizer.EncodeQuery(entry.Query)
			encodings[entry.Query.ID] = qEnc
		}
		enc := n.Featurizer.NewPlanEncoder(entry.Query)
		for _, partial := range constructionStates(entry.Plan) {
			target, ok := n.Experience.MinCostContaining(partial, n.cost)
			if !ok {
				target = n.cost(entry)
			}
			samples = append(samples, valuenet.Sample{
				Query:  qEnc,
				Plan:   enc.Encode(partial),
				Target: target,
			})
		}
	}
	return samples
}

// TestRetrainBuildsKeptSamplesLikeBuildThenShuffle: with more construction
// states than MaxTrainSamples, Retrain builds only the kept samples, and two
// rounds leave the weights, Adam moments, loss and training-rng draw count
// == to building every sample, shuffling them and keeping the first
// MaxTrainSamples.
func TestRetrainBuildsKeptSamplesLikeBuildThenShuffle(t *testing.T) {
	build := func() (*Neo, *testRig) {
		rig := newRig(t, "postgres")
		if err := rig.neo.Bootstrap(rig.wl.Queries[:6], rig.expertFunc()); err != nil {
			t.Fatal(err)
		}
		return rig.neo, rig
	}
	product, rig := build()
	reference, _ := build()
	for round := 0; round < 2; round++ {
		for _, n := range []*Neo{product, reference} {
			for _, q := range rig.wl.Queries[6+2*round : 8+2*round] {
				p, err := rig.expertFunc()(q)
				if err != nil {
					t.Fatal(err)
				}
				lat, _, err := n.Engine.Execute(p)
				if err != nil {
					t.Fatal(err)
				}
				n.Experience.Add(q, p, lat)
			}
		}
		samples := allTrainingSamples(reference)
		keep := len(samples) * 2 / 5
		product.Config.MaxTrainSamples, reference.Config.MaxTrainSamples = keep, keep

		got := product.Retrain()
		n := reference
		n.rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		want := n.Net.Train(samples[:keep], n.Config.TrainEpochs, n.Config.BatchSize, n.rng)
		if got != want {
			t.Fatalf("round %d: loss %v, build-then-shuffle %v", round, got, want)
		}
		if product.rngSrc.draws != reference.rngSrc.draws {
			t.Fatalf("round %d: %d rng draws, build-then-shuffle %d", round, product.rngSrc.draws, reference.rngSrc.draws)
		}
		gotState, wantState := readNetState(t, product.Net), readNetState(t, reference.Net)
		if !reflect.DeepEqual(gotState, wantState) {
			t.Fatalf("round %d: network state differs from build-then-shuffle", round)
		}
	}
}

// TestNumStatesMatchesConstructionStates pins numStates to the states
// constructionStates builds, for complete plans and for the partial plans
// along their construction.
func TestNumStatesMatchesConstructionStates(t *testing.T) {
	rig := newRig(t, "postgres")
	checked := 0
	for _, q := range rig.wl.Queries {
		p, err := rig.expertFunc()(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range append(constructionStates(p), p) {
			if got, want := numStates(s), len(constructionStates(s)); got != want {
				t.Fatalf("%s: numStates %d, constructionStates built %d", s, got, want)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d plans checked", checked)
	}
}

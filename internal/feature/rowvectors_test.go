package feature

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"neo/internal/embedding"
)

// rowConfig is the row-vector training config of this file's featurizers.
var rowConfig = embedding.Config{Dim: 8, Seed: 5}

// TestAdoptNeverTrains: a featurizer that has not featurized yet takes a
// model that describes its corpus as it is, and never runs its training
// thunk — neither for the load nor for the encodings after it.
func TestAdoptNeverTrains(t *testing.T) {
	db, st := setup(t)
	f := ForEncoding(db, st, RVectorNoJoins, rowConfig.Dim, func(bool) *embedding.Model {
		t.Fatal("the featurizer trained row vectors after adopting a model")
		return nil
	})
	m := embedding.TrainRows(db, false, rowConfig)
	if !f.Adopt(m) {
		t.Fatal("a model trained on the featurizer's own corpus was refused")
	}
	if got := f.Embedding(); got != m {
		t.Fatal("the featurizer does not featurize with the adopted model")
	}
	want := withModel(db, st, m)
	want.Encoding = RVectorNoJoins
	if !slices.Equal(f.EncodeQuery(loveQuery()), want.EncodeQuery(loveQuery())) {
		t.Fatal("an adopted model encodes differently from the same model given up front")
	}
	// Once set, the model is compared by its vectors.
	if !f.Adopt(embedding.TrainRows(db, false, rowConfig)) {
		t.Fatal("a second load with the same vectors was refused")
	}
	if f.Adopt(embedding.TrainRows(db, false, embedding.Config{Dim: rowConfig.Dim, Seed: rowConfig.Seed + 1})) {
		t.Fatal("a second load with other vectors was accepted")
	}
	if f.Embedding() != m {
		t.Fatal("a later load replaced the model")
	}
}

// TestRefusedAdoptionStillTrains: a model of another corpus, or of another
// width, is refused without being kept, and the featurizer then trains its
// own on first use, once.
func TestRefusedAdoptionStillTrains(t *testing.T) {
	db, st := setup(t)
	var trained atomic.Int32
	f := ForEncoding(db, st, RVectorNoJoins, rowConfig.Dim, func(joins bool) *embedding.Model {
		trained.Add(1)
		return embedding.TrainRows(db, joins, rowConfig)
	})
	joined := embedding.TrainRows(db, true, rowConfig) // the R-Vector corpus, not R-Vector-no-joins'
	narrow := embedding.TrainRows(db, false, embedding.Config{Dim: rowConfig.Dim / 2, Seed: rowConfig.Seed})
	for _, m := range []*embedding.Model{joined, narrow} {
		if f.Adopt(m) {
			t.Fatalf("adopted a %d-wide model of %d sentences", m.Dim, m.Sentences)
		}
	}
	if trained.Load() != 0 {
		t.Fatal("a refused load trained row vectors")
	}
	got := f.Embedding()
	if got == joined || got == narrow || !got.SameVectors(embedding.TrainRows(db, false, rowConfig)) {
		t.Fatal("after refused loads the featurizer does not featurize with its own trained model")
	}
	f.EncodeQuery(loveQuery())
	if n := trained.Load(); n != 1 {
		t.Fatalf("trained %d times, want once", n)
	}
}

// TestAdoptRacesFirstEncoding: goroutines encode queries through one
// featurizer (and a copy of it) while a load adopts a model with the same
// vectors. Whichever gets there first sets the model: the training thunk
// runs at most once, every goroutine featurizes with one model, and the load
// is accepted either way. Run it under -race.
func TestAdoptRacesFirstEncoding(t *testing.T) {
	db, st := setup(t)
	local := embedding.TrainRows(db, false, rowConfig)
	loaded := embedding.TrainRows(db, false, rowConfig) // equal vectors, another object
	q := loveQuery()
	want := withModel(db, st, local)
	want.Encoding = RVectorNoJoins
	wantEnc := want.EncodeQuery(q)
	for trial := range 20 {
		var trained atomic.Int32
		f := ForEncoding(db, st, RVectorNoJoins, rowConfig.Dim, func(bool) *embedding.Model {
			trained.Add(1)
			return local
		})
		copied := *f
		const encoders = 4
		seen := make([]*embedding.Model, encoders)
		encs := make([][]float64, encoders)
		var adopted bool
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range encoders {
			wg.Add(1)
			fz := f
			if g%2 == 1 {
				fz = &copied
			}
			go func() {
				defer wg.Done()
				<-start
				encs[g] = fz.EncodeQuery(q)
				seen[g] = fz.Embedding()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			adopted = f.Adopt(loaded)
		}()
		close(start)
		wg.Wait()

		if !adopted {
			t.Fatalf("trial %d: a load with the featurizer's own vectors was refused", trial)
		}
		n := trained.Load()
		if n > 1 {
			t.Fatalf("trial %d: the training thunk ran %d times", trial, n)
		}
		model := f.Embedding()
		if (n == 0 && model != loaded) || (n == 1 && model != local) {
			t.Fatalf("trial %d: trained %d times but featurizes with the other model", trial, n)
		}
		for g := range encoders {
			if seen[g] != model {
				t.Fatalf("trial %d: goroutine %d saw another model", trial, g)
			}
			if !slices.Equal(encs[g], wantEnc) {
				t.Fatalf("trial %d: goroutine %d encoded the query differently", trial, g)
			}
		}
	}
}

package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"neo/internal/datagen"
	"neo/pkg/neo"
)

// The coordinated-omission test: one connection, requests due every 10ms, and
// a handler that stalls the first for 200ms. A generator that timed from the
// send would record the queued requests as fast; timing from the due time
// charges them the wait the stall imposed.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()

	dues := make([]time.Duration, 10)
	for i := range dues {
		dues[i] = time.Duration(i) * 10 * time.Millisecond
	}
	samples := openLoop(time.Now(), dues, 1, func(_, i int) bool {
		resp, err := http.Get(ts.URL)
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	for i, s := range samples {
		if !s.ok || s.idx != i {
			t.Fatalf("sample %d: %+v", i, s)
		}
		// Request i was due at 10i ms and could not be sent before the stall
		// ended at 200ms.
		if want := stall - dues[i]; s.latency < want {
			t.Errorf("request %d: latency %v, want >= %v (timed from its due time)", i, s.latency, want)
		}
		if i > 0 {
			if want := stall - dues[i] - 5*time.Millisecond; s.lateness < want {
				t.Errorf("request %d: lateness %v, want about %v (sent when the stall ended)", i, s.lateness, stall-dues[i])
			}
			if service := s.latency - s.lateness; service > 50*time.Millisecond {
				t.Errorf("request %d: send-to-completion %v; the stall belongs to request 0 only", i, service)
			}
		}
	}
}

func TestClosedLoopStopsAtCountAndSendsEachOnce(t *testing.T) {
	seen := make([]atomic.Int32, 100)
	samples, elapsed := closedLoop(time.Hour, len(seen), 3, func(_, i int) bool {
		seen[i].Add(1)
		return i != 7
	})
	if len(samples) != len(seen) || elapsed <= 0 {
		t.Fatalf("%d samples in %v, want %d", len(samples), elapsed, len(seen))
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Errorf("request %d sent %d times", i, n)
		}
	}
	if n := countFailed(samples); n != 1 {
		t.Errorf("countFailed = %d, want 1", n)
	}
	// A failed request misses the limit whatever its latency.
	if got, want := withinLimitShare(samples, time.Hour), 0.99; math.Abs(got-want) > 1e-9 {
		t.Errorf("withinLimitShare = %v, want %v", got, want)
	}
}

func TestGeneratedInputsArePureFunctionsOfSeed(t *testing.T) {
	if a, b := zipfSequence(7, 1.1, 64, 500), zipfSequence(7, 1.1, 64, 500); !reflect.DeepEqual(a, b) {
		t.Error("zipfSequence differs between two calls with one seed")
	}
	if a, b := zipfSequence(7, 1.1, 64, 500), zipfSequence(8, 1.1, 64, 500); reflect.DeepEqual(a, b) {
		t.Error("zipfSequence ignores the seed")
	}
	for _, k := range zipfSequence(7, 1.1, 64, 500) {
		if k < 0 || k >= 64 {
			t.Fatalf("zipf draw %d outside the pool", k)
		}
	}

	a, b := poissonSchedule(7, 0, 1000, time.Second), poissonSchedule(7, 0, 1000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("poissonSchedule differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 0, 1000, time.Second)) || reflect.DeepEqual(a, poissonSchedule(7, 1, 1000, time.Second)) {
		t.Error("poissonSchedule ignores the seed or the window")
	}
	// 1000/s for 1s: about 1000 arrivals (±5σ), ascending, inside the window.
	if n := len(a); n < 840 || n > 1160 {
		t.Errorf("%d arrivals in 1s at 1000/s", n)
	}
	for i, d := range a {
		if d < 0 || d >= time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v", i, d)
		}
	}

	db, err := datagen.Generate(datagen.Profile("imdb"), datagen.Config{Scale: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sigs := func(seed int64) []string {
		const strata = 3
		items, err := genItems(db, 12, seed, strata, func(q *neo.Query, fast bool) int {
			if fast || len(q.Joins) < 4 || len(q.Joins) >= 4+strata {
				return -1
			}
			return len(q.Joins) - 4
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(items))
		for i, it := range items {
			if it.fastpath || it.query.ID != it.query.Signature() || len(it.spec.Joins) != len(it.query.Joins) {
				t.Fatalf("item %d: %+v", i, it)
			}
			// Strata alternate, so every prefix has the same mix.
			if want := 4 + i%strata; len(it.query.Joins) != want {
				t.Fatalf("item %d has %d joins, want %d", i, len(it.query.Joins), want)
			}
			out[i] = it.query.ID
		}
		return out
	}
	if !reflect.DeepEqual(sigs(7), sigs(7)) {
		t.Error("genItems differs between two calls with one seed")
	}
	if reflect.DeepEqual(sigs(7), sigs(8)) {
		t.Error("genItems ignores the seed")
	}
}

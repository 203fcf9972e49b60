package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the outcome of one request as its client saw it.
type sample struct {
	idx      int           // position in the request sequence
	lateness time.Duration // open loop: actual send − due time; closed loop: 0
	latency  time.Duration // open loop: completion − due time; closed loop: completion − send
	ok       bool
}

// doFunc performs request i of a sequence on the given client and reports
// whether it succeeded (transport, status and output checks).
type doFunc func(client, i int) bool

// spinWindow is how long before a due time a client stops sleeping and
// yields in a loop instead: the runtime's timers wake tens of microseconds
// late, which would otherwise show up as generator lateness on requests that
// themselves take ~100µs.
const spinWindow = 500 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends request i at start+dues[i] regardless of how earlier
// requests fared, over a fixed number of clients (one keep-alive connection
// each). Latency is timed from the due time, not the send time, so when a
// stall keeps every client busy the requests that were due meanwhile are
// charged the wait — no coordinated omission. Samples come back in sequence
// order.
func openLoop(start time.Time, dues []time.Duration, clients int, do doFunc) []sample {
	out := make([]sample, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dues) {
					return
				}
				due := start.Add(dues[i])
				waitUntil(due)
				sent := time.Now()
				ok := do(c, i)
				out[i] = sample{idx: i, lateness: sent.Sub(due), latency: time.Since(due), ok: ok}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop keeps each client sending its next request as soon as the
// previous one completes, for duration d (or until the sequence of n
// requests runs out). It returns the samples and the wall-clock the phase
// actually took, from which throughput is computed.
func closedLoop(d time.Duration, n, clients int, do doFunc) ([]sample, time.Duration) {
	perClient := make([][]sample, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sent := time.Now()
				ok := do(c, i)
				perClient[c] = append(perClient[c], sample{idx: i, latency: time.Since(sent), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range perClient {
		out = append(out, s...)
	}
	return out, elapsed
}

func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency)
	}
	return out
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// withinLimitShare is the share of requests sent that succeeded within the
// latency limit; a failed request misses it whatever its latency.
func withinLimitShare(samples []sample, limit time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range samples {
		if s.ok && s.latency <= limit {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

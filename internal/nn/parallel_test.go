package nn

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func setProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// checkEachOnce runs Parallel(workers, tasks) and reports a task that ran
// other than exactly once. It may be called from any goroutine.
func checkEachOnce(t *testing.T, workers, tasks int) {
	hits := make([]atomic.Int32, tasks)
	Parallel(workers, tasks, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Errorf("Parallel(%d, %d): task %d ran %d times", workers, tasks, i, n)
		}
	}
}

var workerCounts, taskCounts = []int{1, 2, 3, 8}, []int{0, 1, 2, 7, 100}

func TestParallelRunsEveryTaskOnce(t *testing.T) {
	for _, w := range workerCounts {
		for _, n := range taskCounts {
			checkEachOnce(t, w, n)
		}
	}
}

// TestParallelConcurrentCallers calls Parallel from 8 goroutines at once,
// as PlanAll does while Retrain trains on another goroutine.
func TestParallelConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for _, w := range workerCounts {
					for _, n := range taskCounts {
						checkEachOnce(t, w, n)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestParallelNested(t *testing.T) {
	for _, w := range workerCounts {
		for _, n := range taskCounts {
			outer := make([]atomic.Int32, n)
			Parallel(w, n, func(i int) {
				outer[i].Add(1)
				checkEachOnce(t, w, 7)
			})
			for i := range outer {
				if got := outer[i].Load(); got != 1 {
					t.Errorf("nested Parallel(%d, %d): outer task %d ran %d times", w, n, i, got)
				}
			}
		}
	}
}

func TestParallelAcrossGOMAXPROCSChanges(t *testing.T) {
	setProcs(t, 4)
	for _, procs := range []int{4, 1, 4, 2} {
		runtime.GOMAXPROCS(procs)
		for _, w := range workerCounts {
			for _, n := range taskCounts {
				checkEachOnce(t, w, n)
			}
		}
	}
	helpers.mu.Lock()
	started := helpers.started
	helpers.mu.Unlock()
	if started < 3 {
		t.Errorf("%d helpers after a call at GOMAXPROCS 4, want at least 3", started)
	}
}

// TestParallelHelpersPark requires every helper to be parked once the spin
// bound has passed after a call: an idle process spends no CPU on them.
func TestParallelHelpersPark(t *testing.T) {
	setProcs(t, 2)
	checkEachOnce(t, 2, 2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		helpers.mu.Lock()
		started, parked := helpers.started, helpers.parked
		helpers.mu.Unlock()
		if started > 0 && parked == started {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked 10 s after the last call", parked, started)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelAllocs counts what one 2-worker, 2-task call allocates: the
// per-call goroutine, WaitGroup, counter and closure it used to cost are
// gone, and a retired job is reused.
func TestParallelAllocs(t *testing.T) {
	setProcs(t, 2)
	var hits [2]atomic.Int32
	run := func(i int) { hits[i].Add(1) }
	if n := testing.AllocsPerRun(100, func() { Parallel(2, 2, run) }); n > 1 {
		t.Errorf("Parallel(2, 2) allocates %.1f times per call, want at most 1", n)
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestParallelCallerPanic panics in a task the calling goroutine runs: the
// panic reaches the caller once the helpers have left, and the pool serves
// the next call.
func TestParallelCallerPanic(t *testing.T) {
	setProcs(t, 2)
	caller := goid()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the task's panic", r)
			}
		}()
		Parallel(2, 100, func(i int) {
			if goid() == caller {
				panic("boom")
			}
			time.Sleep(100 * time.Microsecond)
		})
	}()
	checkEachOnce(t, 2, 100)
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	if len(helpers.open) != 0 {
		t.Errorf("%d jobs still open after the panicking call", len(helpers.open))
	}
}

// TestParallelPanicCrashes runs a call whose tasks all panic in a child
// process: whichever goroutine panics first, the process exits with the
// panic instead of hanging.
func TestParallelPanicCrashes(t *testing.T) {
	if flag.Arg(0) == "panic-child" {
		setProcs(t, 2)
		Parallel(2, 2, func(int) { panic("boom") })
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no path to the test binary: %v", err)
	}
	cmd := exec.CommandContext(ctx, exe, "-test.run=^TestParallelPanicCrashes$", "panic-child")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Fatal("the child hung instead of crashing")
	}
	if err == nil || !strings.Contains(out.String(), "panic: boom") {
		t.Fatalf("child exited with %v, want the task's panic; output:\n%s", err, out.String())
	}
}

// spin does n iterations of dependent arithmetic the compiler cannot drop.
func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

var spinSink float64

// BenchmarkParallelHandoff times a training step's shape: two ~100 µs
// tasks per call, ~20 µs of serial work between calls. start-delay-ns/op
// is how long after the call opens the later of its two tasks starts —
// the wait for a second goroutine. Run it at -cpu 2: at GOMAXPROCS 1 the
// caller runs both tasks and the delay is a task's length. Back-to-back
// empty calls cannot show the cost, because the scheduler's thread never
// parks between them.
func BenchmarkParallelHandoff(b *testing.B) {
	const per = 200_000
	t0 := time.Now()
	spinSink = spin(per)
	perUS := float64(per) / float64(time.Since(t0).Microseconds()+1)
	task, serial := int(100*perUS), int(20*perUS)
	var starts [2]atomic.Int64
	var sinks [2]float64
	var delay time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open := time.Now()
		Parallel(2, 2, func(k int) {
			starts[k].Store(int64(time.Since(open)))
			sinks[k] = spin(task)
		})
		delay += time.Duration(max(starts[0].Load(), starts[1].Load()))
		spinSink += spin(serial) + sinks[0] + sinks[1]
	}
	b.ReportMetric(float64(delay.Nanoseconds())/float64(b.N), "start-delay-ns/op")
}

package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinRounds bounds how long an idle helper looks for the next job before
// it parks, and how long a caller looks for its helpers to leave before it
// blocks. One round is one runtime.Gosched; on the 2-core reference box
// (Xeon, Go 1.24) 4096 rounds measured 0.55 ms inside retraining rounds.
// The serial work between a training step's two calls, and between one
// step and the next, is under 50 µs (batch assembly, weight packing), but
// the bound must also outlast the rest of a job the helper missed — the
// OS descheduled its thread, say — plus that gap: a 16-sample step's shard
// job run by the caller alone takes ~0.4 ms after the last shard is
// claimed. At 512 rounds (~90 µs) a helper parked after 23 % of a
// train-episodes run's calls and the next call waited for a thread
// wake-up; at 4096, after 0.3 %. Idle for longer — between rounds, or in
// a daemon with no traffic — a helper parks within ~0.6 ms. The bound is
// counted in rounds, not time, because this package must not read the
// clock.
const spinRounds = 4096

// helpers is the process's helper pool. It is a package-level value, like
// a sync.Pool, because its point is to outlive every call: a helper
// started for one Parallel call serves the next.
var helpers = newPool()

// Parallel calls run(0) … run(tasks-1), each exactly once, from up to
// workers goroutines — the calling one included — and returns when all calls
// have. Tasks are claimed in index order from one shared counter, so which
// goroutine runs a task never decides what the task computes.
//
// The calling goroutine always takes part; the others are the process's
// helper goroutines (GOMAXPROCS−1 of them, started on first use and added
// when GOMAXPROCS grows), of which up to min(workers, tasks,
// GOMAXPROCS)−1 join the call if idle. A helper that finishes a call keeps
// looking for the next one for spinRounds scheduler rounds, then parks
// until a call needs it, so back-to-back calls find it awake and an idle
// process spends no CPU on it. With one worker, one task or GOMAXPROCS 1
// the caller runs every task itself. A panic in a task crashes the process
// when a helper runs it; on the calling goroutine it propagates to the
// caller once the helpers inside the call have finished their tasks.
func Parallel(workers, tasks int, run func(task int)) {
	procs := runtime.GOMAXPROCS(0)
	seats := min(workers, tasks, procs) - 1
	if seats <= 0 {
		for i := 0; i < tasks; i++ {
			run(i)
		}
		return
	}
	j := helpers.post(procs, seats, tasks, run)
	defer helpers.retire(j)
	j.claim()
}

// pool is the set of helper goroutines shared by every Parallel call.
type pool struct {
	mu       sync.Mutex
	wake     sync.Cond // parked helpers wait here; L is &mu
	started  int       // guarded by mu: helpers started
	parked   int       // guarded by mu: helpers waiting on wake
	spinning int       // guarded by mu: idle helpers still looking for a job
	open     []seat    // guarded by mu: posted, unretired jobs, newest last
	free     []*job    // guarded by mu: retired jobs no helper is inside

	// posts counts jobs posted (under mu); a spinning helper polls it
	// without the lock.
	posts atomic.Uint64
}

// seat is an open job and how many more helpers may join it.
type seat struct {
	j     *job
	seats int
}

// job is one Parallel call. Its run and tasks are written before it is
// posted and read by helpers only after they join it under pool.mu.
type job struct {
	run   func(task int)
	tasks int
	next  atomic.Int64 // next task index to claim
	// inside counts the helpers in the job plus one for the caller until it
	// retires the job; whoever takes it to zero while the caller waits
	// sends on done.
	inside atomic.Int32
	done   chan struct{}
}

func newPool() *pool {
	p := &pool{}
	p.wake.L = &p.mu
	return p
}

// post opens a job for up to seats helpers, starting helpers up to
// procs−1 and waking parked ones the spinning ones cannot cover.
func (p *pool) post(procs, seats, tasks int, run func(task int)) *job {
	p.mu.Lock()
	for ; p.started < procs-1; p.started++ {
		go p.help()
	}
	var j *job
	if n := len(p.free); n > 0 {
		j, p.free = p.free[n-1], p.free[:n-1]
	} else {
		j = &job{done: make(chan struct{}, 1)}
	}
	j.run, j.tasks = run, tasks
	j.next.Store(0)
	j.inside.Store(1)
	p.open = append(p.open, seat{j, seats})
	p.posts.Add(1)
	for n := min(seats-p.spinning, p.parked); n > 0; n-- {
		p.wake.Signal()
	}
	p.mu.Unlock()
	return j
}

// retire closes j to new helpers, waits for the ones inside to leave and
// keeps j for reuse. Claims past the last task stop a helper after its
// current task when the caller is unwinding from a panic.
func (p *pool) retire(j *job) {
	j.next.Store(int64(j.tasks))
	p.mu.Lock()
	for i, s := range p.open {
		if s.j == j {
			p.open = append(p.open[:i], p.open[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	for i := 0; i < spinRounds && j.inside.Load() > 1; i++ {
		runtime.Gosched()
	}
	if j.inside.Add(-1) != 0 {
		<-j.done
	}
	j.run = nil // a pooled job keeps no caller's closure alive
	p.mu.Lock()
	p.free = append(p.free, j)
	p.mu.Unlock()
}

// help is a helper goroutine's life: join an open job, claim its tasks,
// then spin for spinRounds rounds and park until woken.
func (p *pool) help() {
	p.mu.Lock()
	for {
		if j := p.joinLocked(); j != nil {
			p.mu.Unlock()
			j.claim()
			if j.inside.Add(-1) == 0 {
				j.done <- struct{}{}
			}
			p.mu.Lock()
			continue
		}
		seen := p.posts.Load()
		p.spinning++
		p.mu.Unlock()
		for i := 0; i < spinRounds && p.posts.Load() == seen; i++ {
			runtime.Gosched()
		}
		p.mu.Lock()
		p.spinning--
		// No post since the failed join leaves nothing to join: an open
		// job's seats and unclaimed tasks only shrink.
		if p.posts.Load() == seen {
			p.parked++
			p.wake.Wait()
			p.parked--
		}
	}
}

// joinLocked takes a seat in the newest open job with a seat and an
// unclaimed task, or returns nil.
func (p *pool) joinLocked() *job {
	for i := len(p.open) - 1; i >= 0; i-- {
		s := &p.open[i]
		if s.seats > 0 && s.j.next.Load() < int64(s.j.tasks) {
			s.seats--
			s.j.inside.Add(1)
			return s.j
		}
	}
	return nil
}

// claim runs tasks in index order until none is left.
func (j *job) claim() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.tasks {
			return
		}
		j.run(i)
	}
}

// Package guardedby is a neo-lint self-test fixture for the `// guarded by
// <mu>` discipline check.
package guardedby

import "sync"

type counter struct {
	mu    sync.RWMutex
	reads int // guarded by mu
	// hits is the per-query tally.
	// guarded by mu
	hits map[string]int
	// guarded by nonexistent
	orphan int // want "not a field of counter"
}

func (c *counter) Good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	return c.reads
}

func (c *counter) GoodRead() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.reads
}

func (c *counter) GoodHit(q string) {
	c.mu.Lock()
	c.hits[q]++
	c.mu.Unlock()
}

func (c *counter) BadRead() int {
	return c.reads // want "read without holding"
}

func (c *counter) BadWriteUnderRLock() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.reads++ // want "written without holding it exclusively"
}

func (c *counter) AfterUnlock() {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	c.reads = 0 // want "written without holding"
}

func (c *counter) AddressEscapes() *int {
	return &c.reads // want "written without holding"
}

func (c *counter) EarlyExit() int {
	c.mu.Lock()
	if c.hits == nil {
		c.mu.Unlock() // terminating branch: must not leak to the code below
		return 0
	}
	v := c.reads
	c.mu.Unlock()
	return v
}

func (c *counter) UnlockedInBranch() int {
	c.mu.Lock()
	if len(c.hits) > 0 {
		c.mu.Unlock() // non-terminating branch: the fall-through IS unlocked
	}
	return c.reads // want "read without holding"
}

func (c *counter) resetLocked() {
	c.reads = 0 // *Locked methods document "caller holds mu": no finding
	c.hits = nil
}

func (c *counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
}

func (c *counter) Async() {
	go func() {
		c.reads++ // function literals are exempt (see check doc): no finding
	}()
}

func (c *counter) Suppressed() int {
	return c.reads //neo:lint-ok guardedby fixture reads a racy hint value on purpose
}

func (c *counter) Unguarded() sync.RWMutex {
	return c.mu // the mutex itself is not a guarded field: no finding
}

// pool is a generic type: its methods' receivers are spelled *pool[T], and
// the annotations on its fields must bind to them all the same.
type pool[T any] struct {
	mu    sync.Mutex
	items []T // guarded by mu
}

func (p *pool[T]) Put(v T) {
	p.mu.Lock()
	p.items = append(p.items, v)
	p.mu.Unlock()
}

func (p *pool[T]) Len() int {
	return len(p.items) // want "read without holding"
}

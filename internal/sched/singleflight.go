package sched

import "sync"

// Cache is a single-flight memoising map: the first Do call for a key
// computes the value while any concurrent callers for the same key
// block until it is ready, then share the result. Later calls return
// the cached value without blocking. The zero value is ready to use.
//
// The experiment harness keeps one Cache of captured traces and one of
// simulation cell runs per session, so an `-experiment all` run
// captures each workload and simulates each distinct cell once — not
// once per experiment, and not once per concurrent job that happens to
// ask first.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the cached value for key, computing it with fn if absent.
// Concurrent calls for the same key run fn once and share its result.
// A failed computation is not cached: its error is delivered to every
// caller waiting on that flight, and the next Do retries. A panicking
// fn counts as failed: the panic continues in the computing caller
// (where the scheduler's recover contains it), the waiters receive a
// *PanicError, and the next Do retries.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*flight[V])
	}
	if f, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.m[key] = f
	c.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			f.err = &PanicError{Value: "single-flight computation panicked"}
		}
		if f.err != nil {
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(f.done)
	}()
	f.val, f.err = fn()
	returned = true
	return f.val, f.err
}

// Len returns the number of resident entries (including in-flight
// computations).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

package sched_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestCacheSingleFlight checks that concurrent Do calls for one key
// execute the function exactly once and all observe its result.
func TestCacheSingleFlight(t *testing.T) {
	var c sched.Cache[string, int]
	var calls atomic.Int64
	release := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("waiter %d got %d", i, v)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}

// TestCacheDistinctKeys checks keys don't share flights.
func TestCacheDistinctKeys(t *testing.T) {
	var c sched.Cache[int, int]
	for k := 0; k < 10; k++ {
		v, err := c.Do(k, func() (int, error) { return k * 10, nil })
		if err != nil || v != k*10 {
			t.Fatalf("Do(%d) = %d, %v", k, v, err)
		}
	}
	if c.Len() != 10 {
		t.Errorf("Len() = %d, want 10", c.Len())
	}
}

// TestCacheErrorRetry checks a failed computation is not cached: the
// error reaches the caller and the next Do retries.
func TestCacheErrorRetry(t *testing.T) {
	var c sched.Cache[string, int]
	boom := errors.New("boom")
	calls := 0
	_, err := c.Do("k", func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("first Do error = %v", err)
	}
	v, err := c.Do("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry Do = %d, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (no caching of errors)", calls)
	}
	// Success is cached.
	v, _ = c.Do("k", func() (int, error) { calls++; return 99, nil })
	if v != 7 || calls != 2 {
		t.Errorf("cached Do = %d (calls %d), want 7 (2)", v, calls)
	}
}

// TestCachePanicReleasesWaiters checks a panicking computation neither
// caches nor strands its waiters: the computing caller sees the panic,
// a concurrent waiter gets a *PanicError, and the next Do retries.
func TestCachePanicReleasesWaiters(t *testing.T) {
	var c sched.Cache[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waited := make(chan error, 1)
	go func() {
		_, err := c.Do("k", func() (int, error) { return 1, nil })
		waited <- err
	}()
	// Give the waiter time to join the in-flight computation; if it
	// arrives late it computes its own value, which the check below
	// tolerates.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("computing caller recovered %v, want boom", p)
	}
	if err := <-waited; err != nil {
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("waiter error = %v, want *PanicError", err)
		}
	}
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after panic = %d, %v; want 7, nil", v, err)
	}
}

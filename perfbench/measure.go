package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// report collects what one workload run measured: the operations it
// attempted, the ones that failed or whose output did not match the
// reference, and its metric values by name (units live in the metric
// tables of main.go).
type report struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

// set records a metric. A ratio over work the run did not do (0/0)
// reads 0.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// fail counts n failed operations and keeps the first few reasons for
// the stderr report.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic that still has at least
// minBeyond samples above it, with the number of samples beyond it.
// It is the highest percentile the sample can support: a p99 from 50
// samples is one value, not a percentile. With minBeyond or fewer
// samples no order statistic qualifies; it then returns the maximum
// with 0 beyond, which the report prints beside the value.
func tail(xs []float64, minBeyond int) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - minBeyond
	if i < 0 {
		return s[len(s)-1], 0
	}
	return s[i], len(s) - 1 - i
}

// cpuTime is the CPU time this process has used so far, on all its
// threads (CLOCK_PROCESS_CPUTIME_ID). Unlike wall time it does not
// grow while the process waits for a CPU the host gave to another, so
// it measures the program's work rather than the host's load.
func cpuTime() time.Duration { return clock(2) }

// threadCPU is the CPU time of the calling thread
// (CLOCK_THREAD_CPUTIME_ID). The caller keeps its goroutine on the
// thread with runtime.LockOSThread while it times.
func threadCPU() time.Duration { return clock(3) }

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, e))
	}
	return time.Duration(ts.Nano())
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// spans is the traced run's in-memory span log: one record per call
// the benchmark made into a layer, with the span that caused it.
// Concurrent layers (cells on the worker pool, slices of one estimate)
// record from several goroutines.
type spans struct {
	mu    sync.Mutex
	t0    time.Time
	items []span
}

type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the causing span, -1 at the root
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its index and a function that closes
// it. A nil log records nothing, so untraced code paths can share the
// traced ones.
func (s *spans) begin(name string, parent int) (int, func() time.Duration) {
	start := time.Now()
	if s == nil {
		return -1, func() time.Duration { return time.Since(start) }
	}
	s.mu.Lock()
	idx := len(s.items)
	s.items = append(s.items, span{Name: name, Parent: parent, Start: us(start.Sub(s.t0))})
	s.mu.Unlock()
	return idx, func() time.Duration {
		end := time.Now()
		s.mu.Lock()
		s.items[idx].End = us(end.Sub(s.t0))
		s.mu.Unlock()
		return end.Sub(start)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

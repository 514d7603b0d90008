package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The same work takes up to twice the CPU time on a shared host while
// neighbours load the cores it runs on: the CPU clock keeps running
// while the core is slowed. The benchmark therefore reports CPU time
// normalised by the host's speed, which a reference workload samples
// throughout each measurement: a fixed chunk of map updates and
// compression, standard-library code that slows with the simulator
// where tight arithmetic or pointer-chasing loops do not. A time of x s
// at a chunk time of c reads x·refChunk/c: the CPU seconds the work
// would take on a host that runs a chunk in refChunk.

// refChunk is the CPU time of one reference chunk on a quiet core of a
// KVM guest on an Intel Xeon (Sapphire Rapids class) host.
const refChunk = 0.6e-3 // s

// calibPeriod is how often the calibrator runs a chunk while a pass
// runs: about a tenth of one CPU.
const calibPeriod = 10 * time.Millisecond

// reference is the fixed workload of the chunks. Its input is the same
// in every run, whatever the seed.
type reference struct {
	keys []uint64
	m    map[uint64]int
	text []byte
	buf  bytes.Buffer
	zw   *flate.Writer
	sink int
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	r := &reference{keys: make([]uint64, 4096), text: make([]byte, 16<<10)}
	for i := range r.keys {
		r.keys[i] = rng.Uint64()
	}
	r.m = make(map[uint64]int, len(r.keys))
	const alphabet = "abcdefghij klmnop"
	for i := range r.text {
		r.text[i] = alphabet[rng.Intn(len(alphabet))]
	}
	r.zw, _ = flate.NewWriter(&r.buf, 5) // level 5 is valid
	return r
}

// chunk runs one unit of the reference workload.
func (r *reference) chunk() {
	clear(r.m)
	for i, k := range r.keys {
		r.m[k] = i
	}
	for _, k := range r.keys {
		r.sink += r.m[k^1] + r.m[k]
	}
	r.buf.Reset()
	r.zw.Reset(&r.buf)
	r.zw.Write(r.text)
	r.zw.Close()
	r.sink += r.buf.Len()
}

// timeChunk runs a chunk on the calling thread and returns its CPU
// time.
func (r *reference) timeChunk() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	r.chunk()
	return threadCPU() - start
}

// calibrator runs reference chunks in the background, one every
// calibPeriod, on a thread of its own.
type calibrator struct {
	cpu    atomic.Int64 // CPU time of the chunks run so far, ns
	chunks atomic.Int64
	stop   chan struct{}
	done   sync.WaitGroup
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{})}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		ref := newReference()
		tick := time.NewTicker(calibPeriod)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			c.cpu.Add(int64(ref.timeChunk()))
			c.chunks.Add(1)
		}
	}()
	return c
}

func (c *calibrator) close() {
	close(c.stop)
	c.done.Wait()
}

// mark is a point of a measurement: the process's CPU time and the
// calibrator's.
type mark struct {
	proc, calib time.Duration
	chunks      int64
}

func (c *calibrator) mark() mark {
	return mark{proc: cpuTime(), calib: time.Duration(c.cpu.Load()), chunks: c.chunks.Load()}
}

// work is the CPU time the process spent from a to b, less the
// calibrator's own.
func work(a, b mark) time.Duration { return (b.proc - a.proc) - (b.calib - a.calib) }

// chunkTime is the mean CPU time of the chunks run from a to b.
func chunkTime(a, b mark) float64 {
	return seconds(b.calib-a.calib) / float64(max(b.chunks-a.chunks, 1))
}

// normalise converts CPU seconds measured at a chunk time into CPU
// seconds at refChunk.
func normalise(cpu, chunk float64) float64 { return cpu * refChunk / chunk }

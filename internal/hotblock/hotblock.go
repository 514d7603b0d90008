// Package hotblock is what remains of the hot-block timing memoization
// (a trace JIT that replayed captured loop schedules), which was deleted
// because it did not pay for itself end to end. Only the telemetry type
// survives, for the benchmark harness under perfbench/, which is frozen
// outside benchmark changes and still compiles against it.
package hotblock

// Counters is the former replay telemetry. No engine writes it any
// more: every field reads zero. It stays only so that perfbench, which
// passes one through cmp.Options.HotBlock and reports its fields, keeps
// building until the next benchmark change drops its hotblock.* metrics.
type Counters struct {
	Templates            uint64
	ReplayedInsts        uint64
	InvalidationsSquash  uint64
	InvalidationsPrecond uint64
	AbortsSpanLimit      uint64
	AbortsUnsteady       uint64
}

// Merge accumulates o into c.
func (c *Counters) Merge(o Counters) {
	c.Templates += o.Templates
	c.ReplayedInsts += o.ReplayedInsts
	c.InvalidationsSquash += o.InvalidationsSquash
	c.InvalidationsPrecond += o.InvalidationsPrecond
	c.AbortsSpanLimit += o.AbortsSpanLimit
	c.AbortsUnsteady += o.AbortsUnsteady
}

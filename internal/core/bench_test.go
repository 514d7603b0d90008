package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// BenchmarkSteering measures the partitioner's decision throughput.
func BenchmarkSteering(b *testing.B) {
	w, _ := workloads.ByName("gcc")
	tr := w.Trace(50_000)
	cfg := config.Medium()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSteerer(cfg.FgSTP, cfg.Core.ROBSize, tr)
		s.info(uint64(tr.Len() - 1))
	}
	b.ReportMetric(float64(tr.Len()), "insts/op")
}

// BenchmarkFgstpMachine measures end-to-end Fg-STP simulation speed.
func BenchmarkFgstpMachine(b *testing.B) {
	w, _ := workloads.ByName("hmmer")
	tr := w.Trace(30_000)
	cfg := config.Medium()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mustMachine(b, cfg, tr)
		mustDrainM(b, m)
	}
	b.ReportMetric(float64(tr.Len()), "insts/op")
}

// BenchmarkChannelGrant measures the value-channel arbitration cost.
func BenchmarkChannelGrant(b *testing.B) {
	c := newChannel(3, 2, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.grant(int64(i / 2))
	}
}

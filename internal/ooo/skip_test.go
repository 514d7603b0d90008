package ooo

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// drainOutcome is everything observable about a finished run that an
// engine accelerator could possibly perturb: the final clock, the full
// core report (every counter, every CPI-stack bucket), the complete
// statistics of all three caches, prefetch and DRAM traffic, the
// predictor's lookup/mispredict counters, and the dependence
// predictor's operation count (whose periodic clear makes it
// timing-relevant).
type drainOutcome struct {
	cycles     int64
	rpt        Report
	l1i        mem.CacheStats
	l1d        mem.CacheStats
	l2         mem.CacheStats
	prefetches uint64
	dram       uint64
	dirLook    uint64
	dirMiss    uint64
	tgtLook    uint64
	tgtMiss    uint64
	depOps     uint64
}

// drainRun runs cfg over tr with event-driven skipping, or fully ticked
// as the oracle, and returns the observable outcome.
func drainRun(t *testing.T, cfg Config, hcfg mem.HierarchyConfig, tr *trace.Trace, ticked bool) drainOutcome {
	t.Helper()
	hier, err := mem.NewHierarchy(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(cfg, hier, NewTraceStream(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	var now int64
	if ticked {
		now, err = DrainTicked(core, tr.Len())
	} else {
		now, err = Drain(core, tr.Len())
	}
	if err != nil {
		t.Fatalf("drain (ticked=%v): %v", ticked, err)
	}
	o := drainOutcome{
		cycles:     now,
		rpt:        core.Report(),
		l1i:        hier.L1I.Stats,
		l1d:        hier.L1D.Stats,
		l2:         hier.L2.Stats,
		prefetches: hier.Prefetches,
		dram:       hier.DRAMAccesses,
	}
	if p := core.Predictor(); p != nil {
		o.dirLook, o.dirMiss = p.DirLookups, p.DirMispredict
		o.tgtLook, o.tgtMiss = p.TgtLookups, p.TgtMispredict
	}
	if core.dep != nil {
		o.depOps = core.dep.ops
	}
	return o
}

func assertSkipExact(t *testing.T, name string, cfg Config, hcfg mem.HierarchyConfig, tr *trace.Trace) {
	t.Helper()
	skip := drainRun(t, cfg, hcfg, tr, false)
	tick := drainRun(t, cfg, hcfg, tr, true)
	if skip != tick {
		t.Errorf("%s: skipping run diverges from ticked run\n skip: %+v\n tick: %+v", name, skip, tick)
	}
}

// The event-driven skip engine is byte-exact against the ticked engine
// over randomized programs and a spread of machine shapes: identical
// final cycle counts, identical reports (every counter, every CPI-stack
// bucket, every dispatch-stall cause), identical cache, predictor and
// dependence-predictor traffic.
func TestSkipVsTickDifferential(t *testing.T) {
	shapes := []struct {
		name string
		mut  func(*Config)
		hmut func(*mem.HierarchyConfig)
	}{
		{name: "baseline", mut: func(c *Config) {}},
		{name: "narrow", mut: func(c *Config) {
			c.FetchWidth, c.FrontWidth, c.IssueWidth, c.CommitWidth = 2, 2, 2, 2
			c.ROBSize, c.IQSize, c.LQSize, c.SQSize = 32, 12, 8, 8
		}},
		{name: "tiny-window", mut: func(c *Config) {
			c.ROBSize, c.IQSize = 8, 4
		}},
		{name: "slow-dram", mut: func(c *Config) {}, hmut: func(h *mem.HierarchyConfig) {
			h.DRAMLatency = 900
			h.L2.SizeBytes = 64 << 10
		}},
		{name: "clustered", mut: func(c *Config) {
			c.Clusters = 2
			c.CrossClusterBypass = 2
		}},
		{name: "clustered-slow-dram", mut: func(c *Config) {
			c.Clusters = 2
			c.CrossClusterBypass = 3
		}, hmut: func(h *mem.HierarchyConfig) {
			h.DRAMLatency = 600
		}},
	}
	traces := []*trace.Trace{
		loopTrace(300),
		randomTrace(1, 800),
		randomTrace(2, 800),
		randomTrace(3, 1500),
	}
	for _, sh := range shapes {
		cfg := testConfig()
		sh.mut(&cfg)
		hcfg := testHier()
		if sh.hmut != nil {
			sh.hmut(&hcfg)
		}
		for i, tr := range traces {
			assertSkipExact(t, sh.name+"/"+tr.Name+"-"+string(rune('0'+i)), cfg, hcfg, tr)
		}
	}
}

// chaseTrace and memBoundHier (the memory-bound worst case the cycle
// skipper exists for) live in bench_test.go, shared with
// BenchmarkMemoryBoundCycleSkip.

// A skipping drain actually skips: on a memory-bound pointer chase the
// number of simulated Cycle calls must be far below the cycle count.
// (Correctness is covered by the differential test; this pins that the
// optimisation is engaged at all, so a regression that silently
// disables skipping fails loudly rather than just running slow.)
func TestSkipEngagesOnMemoryBound(t *testing.T) {
	tr := chaseTrace(400)
	hier, err := mem.NewHierarchy(memBoundHier())
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(testConfig(), hier, NewTraceStream(tr), nil)
	if err != nil {
		t.Fatal(err)
	}
	var now, sim int64
	for !core.Done() {
		if next := core.NextEvent(now, nil); next > now {
			core.SkipTo(now, next)
			now = next
			continue
		}
		core.Cycle(now)
		now++
		sim++
		if now > int64(tr.Len())*2000 {
			t.Fatalf("livelock: %d cycles, %d committed", now, core.Committed())
		}
	}
	if sim*2 > now {
		t.Errorf("memory-bound chase simulated %d of %d cycles; skipping is not engaging", sim, now)
	}
	// The differential guarantee holds here too.
	assertSkipExact(t, "chase", testConfig(), memBoundHier(), tr)
}

// FuzzDrainVsTicked: the skipping drain matches the ticked oracle on
// arbitrary trace and machine shapes. Randomized traces mispredict and
// violate memory ordering, so squashes land at arbitrary points of
// skipped spans.
func FuzzDrainVsTicked(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(0))
	f.Add(int64(2), uint16(900), uint8(1))
	f.Add(int64(3), uint16(1200), uint8(2))
	f.Add(int64(4), uint16(600), uint8(3))
	f.Add(int64(5), uint16(1500), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, shape uint8) {
		n := 100 + int(steps)%1400
		tr := randomTrace(seed, n)
		cfg := testConfig()
		hcfg := testHier()
		switch shape % 5 {
		case 1:
			cfg.FetchWidth, cfg.FrontWidth, cfg.IssueWidth, cfg.CommitWidth = 2, 2, 2, 2
			cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize = 32, 12, 8, 8
		case 2:
			cfg.Clusters = 2
			cfg.CrossClusterBypass = 2
		case 3:
			hcfg.DRAMLatency = 700
			hcfg.L2.SizeBytes = 64 << 10
		case 4:
			// A tiny dependence predictor aliases heavily: more
			// violations, more squashes.
			cfg.DepPredBits = 4
		}
		skip := drainRun(t, cfg, hcfg, tr, false)
		tick := drainRun(t, cfg, hcfg, tr, true)
		if skip != tick {
			t.Fatalf("seed=%d n=%d shape=%d: skipping run diverges from ticked\n skip: %+v\n tick: %+v",
				seed, n, shape%5, skip, tick)
		}
	})
}

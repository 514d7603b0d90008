package core

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/ooo"
)

// runJSON drains a fresh machine (skipping or ticked) and returns its
// full summary serialised — cycle count, every metric, every per-core
// CPI-stack bucket — so the comparison covers everything Summarize
// exports.
func runJSON(t *testing.T, cfg config.Machine, trName string, insts uint64, ticked bool) string {
	t.Helper()
	tr := wkTrace(t, trName, insts)
	m := mustMachine(t, cfg, tr)
	var cycles int64
	var err error
	if ticked {
		cycles, err = m.DrainTicked()
	} else {
		cycles, err = m.Drain()
	}
	if err != nil {
		t.Fatalf("%s/%s ticked=%v: %v", cfg.Name, trName, ticked, err)
	}
	b, err := json.Marshal(m.Summarize(cycles))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The machine-level skip engine is byte-exact against the ticked
// machine across presets, load-wait policies and workloads: identical
// serialised summaries (cycles, channel stats, sequencer stalls, both
// cores' reports).
func TestMachineSkipVsTickDifferential(t *testing.T) {
	storeSets := config.Medium()
	storeSets.Name = "medium-storesets"
	storeSets.FgSTP.UseStoreSets = true
	noSpec := config.Small()
	noSpec.Name = "small-nospec"
	noSpec.FgSTP.DepSpeculation = false
	cfgs := []config.Machine{config.Small(), config.Medium(), storeSets, noSpec}
	wls := []string{"gcc", "mcf", "milc", "hmmer", "libquantum"}
	for _, cfg := range cfgs {
		for _, wl := range wls {
			skip := runJSON(t, cfg, wl, 6_000, false)
			tick := runJSON(t, cfg, wl, 6_000, true)
			if skip != tick {
				t.Errorf("%s/%s: skip and tick summaries diverge\n skip: %s\n tick: %s",
					cfg.Name, wl, skip, tick)
			}
		}
	}
}

// A permanently-stalled inter-core channel must still trip the livelock
// watchdog under the skipping drain, with the same forensic snapshot a
// ticked run produces: an installed fault injector defeats the event
// estimates, so the machine never skips past the stall and the
// Cycles/SinceCommit the watchdog reports stay wall-exact.
func TestWatchdogUnderSkip(t *testing.T) {
	tr := wkTrace(t, "gcc", 4_000)
	snap := func(ticked bool) *LivelockError {
		m := mustMachine(t, config.Medium(), tr)
		m.SetFaults(faults.ChannelStall(200))
		var err error
		if ticked {
			_, err = m.DrainTicked()
		} else {
			_, err = m.Drain()
		}
		if err == nil {
			t.Fatal("stalled channel drained cleanly; watchdog did not fire")
		}
		if !errors.Is(err, ooo.ErrLivelock) {
			t.Fatalf("watchdog error does not wrap ErrLivelock: %v", err)
		}
		var le *LivelockError
		if !errors.As(err, &le) {
			t.Fatalf("no LivelockError in %v", err)
		}
		return le
	}
	s, k := snap(false), snap(true)
	if s.Cycles != k.Cycles || s.SinceCommit != k.SinceCommit {
		t.Errorf("watchdog wall clock diverges: skip fired at cycle %d (%d since commit), tick at %d (%d)",
			s.Cycles, s.SinceCommit, k.Cycles, k.SinceCommit)
	}
	if *s != *k {
		t.Errorf("watchdog snapshots diverge:\n skip: %+v\n tick: %+v", *s, *k)
	}
	if s.SinceCommit <= ooo.LivelockWindow-1 {
		t.Errorf("implausible SinceCommit %d for a permanent stall", s.SinceCommit)
	}
}

// With no faults installed, a machine whose channel never stalls still
// reaches the watchdog exactly when a ticked run does if it genuinely
// livelocks — here forced by clamping the skip at the watchdog bound on
// a healthy machine mid-run is unobservable: the healthy run completes
// with skipping and ticking at the same cycle. (Covers the clamp paths
// in drain.)
func TestMachineSkipCompletesHealthy(t *testing.T) {
	tr := wkTrace(t, "sjeng", 5_000)
	ms := mustMachine(t, config.Small(), tr)
	mt := mustMachine(t, config.Small(), tr)
	cs := mustDrainM(t, ms)
	ct, err := mt.DrainTicked()
	if err != nil {
		t.Fatal(err)
	}
	if cs != ct {
		t.Errorf("healthy run cycle counts diverge: skip=%d tick=%d", cs, ct)
	}
}

// FuzzPairDrainVsTicked: the skipping machine drain matches the ticked
// oracle byte for byte on randomized workload, budget and machine
// shapes, including squash-heavy workloads and a narrow, slow channel
// (the corpus seeds mirror the channel-stall injector tests' traces).
func FuzzPairDrainVsTicked(f *testing.F) {
	f.Add(int64(1), uint16(4_000), uint8(0)) // gcc/4k: the channel-stall trace
	f.Add(int64(2), uint16(9_000), uint8(1))
	f.Add(int64(3), uint16(12_000), uint8(2))
	f.Add(int64(4), uint16(6_000), uint8(3))
	f.Add(int64(5), uint16(15_000), uint8(4))
	wls := []string{"gcc", "mcf", "milc", "hmmer", "sjeng", "libquantum", "gobmk"}
	f.Fuzz(func(t *testing.T, seed int64, steps uint16, shape uint8) {
		insts := 1_000 + uint64(steps)%15_000
		wl := wls[uint64(seed%int64(len(wls))+int64(len(wls)))%uint64(len(wls))]
		cfg := config.Medium()
		switch shape % 5 {
		case 1:
			cfg = config.Small()
		case 2:
			cfg = config.Small()
			cfg.Name = "small-nospec"
			cfg.FgSTP.DepSpeculation = false
		case 3:
			cfg.Name = "medium-chan"
			cfg.FgSTP.CommLatency = 5
			cfg.FgSTP.CommBandwidth = 1
		case 4:
			cfg.Name = "medium-window"
			cfg.FgSTP.Window = 96
		}
		skip := runJSON(t, cfg, wl, insts, false)
		tick := runJSON(t, cfg, wl, insts, true)
		if skip != tick {
			t.Fatalf("%s/%s insts=%d: skipping drain diverges from ticked\n skip: %s\n tick: %s",
				cfg.Name, wl, insts, skip, tick)
		}
	})
}

package core

import (
	"testing"

	"repro/internal/config"
)

// Steady-state Machine.Cycle performs zero heap allocations. Steering
// decisions are the one legitimately amortised cost (the cache is
// append-only over the whole trace), so the test forces them all up
// front — behaviour-neutral, since info() is memoised — and then pins
// the cycle loop itself: sequencer fill, both cores, the channels, the
// cross-core side tables, the store tracker and the remote-waiter list
// must all run out of preallocated storage. The narrow-channel milc
// case keeps consumers asleep on cross-core operands (memoised grants
// and unissued producers) throughout the measurement.
func TestMachineCycleZeroAllocs(t *testing.T) {
	cases := []struct {
		cfg      config.Machine
		wl       string
		insts    uint64
		chanWait bool
	}{
		{config.Medium(), "mcf", 120_000, false},
		{chanConfig(), "milc", 60_000, true},
	}
	for _, tc := range cases {
		tr := wkTrace(t, tc.wl, tc.insts)
		m := mustMachine(t, tc.cfg, tr)
		m.st.info(uint64(tr.Len() - 1)) // decide all steering up front

		var now int64
		for ; now < 10_000; now++ {
			m.Cycle(now)
		}
		if m.Done() {
			t.Fatalf("%s: trace too short: machine finished during warmup", tc.wl)
		}
		waiting := 0
		avg := testing.AllocsPerRun(50, func() {
			for end := now + 100; now < end; now++ {
				m.Cycle(now)
				if len(m.remote) > 0 {
					waiting++
				}
			}
		})
		if avg != 0 {
			t.Errorf("%s: steady-state Machine.Cycle allocates: %.2f allocs per 100 cycles, want 0", tc.wl, avg)
		}
		if m.nextCommit == 0 {
			t.Fatalf("%s: machine made no progress during the measurement", tc.wl)
		}
		if tc.chanWait && waiting == 0 {
			t.Errorf("%s: no consumer slept on a remote producer during the measurement", tc.wl)
		}
	}
}

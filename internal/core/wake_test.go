package core

import (
	"encoding/json"
	"errors"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/ooo"
)

// chanConfig is the medium machine with a narrow, slow channel: many
// consumers sleep on cross-core operands, both on memoised grants and
// on producers that have not issued.
func chanConfig() config.Machine {
	cfg := config.Medium()
	cfg.Name = "medium-chan"
	cfg.FgSTP.CommLatency = 5
	cfg.FgSTP.CommBandwidth = 1
	return cfg
}

// checkRemoteWaiters asserts the remote-waiter list holds only live
// enrolments: each consumer still carries the gseq it enrolled under
// (no recycled uop), is unissued, and waits on an older producer that
// has not issued either — an enrolment whose producer issued is a
// missed wake.
func checkRemoteWaiters(t *testing.T, m *Machine, now int64) {
	t.Helper()
	for _, e := range m.remote {
		if e.u.GSeq() != e.g {
			t.Fatalf("cycle %d: remote waiter for gseq %d now holds recycled uop %d", now, e.g, e.u.GSeq())
		}
		if e.u.Issued() {
			t.Fatalf("cycle %d: remote waiter %d issued while enrolled", now, e.g)
		}
		if e.p >= e.g {
			t.Fatalf("cycle %d: remote waiter %d enrolled on younger producer %d", now, e.g, e.p)
		}
		if _, ok := m.completeAt.Get(e.p); ok {
			t.Fatalf("cycle %d: waiter %d still enrolled after producer %d issued", now, e.g, e.p)
		}
	}
}

// drainForcingSquashes drains m (skipping dead cycles, or ticked) and,
// on every multiple of every at which consumers sleep on remote
// unissued producers, requests a global squash from the youngest
// enrolled consumer, so that it is squashed and any older enrolments
// survive. Skips stop at those multiples, so both drains squash at the
// same cycles. It returns the cycle count, the number of forced
// squashes, and how many enrolments were older than their squash point.
func drainForcingSquashes(t *testing.T, m *Machine, skip bool, every int64) (cycles int64, forced, survived int) {
	t.Helper()
	var now, lastProgress int64
	lastCommit := m.nextCommit
	for !m.Done() {
		if m.nextCommit != lastCommit {
			lastCommit, lastProgress = m.nextCommit, now
		}
		if now-lastProgress > ooo.LivelockWindow {
			t.Fatalf("no commit progress since cycle %d (skip=%v): a sleeper was never woken", lastProgress, skip)
		}
		squashAt := uint64(0)
		if now%every == 0 && len(m.remote) > 0 {
			gs := make([]uint64, 0, len(m.remote))
			for _, e := range m.remote {
				gs = append(gs, e.g)
			}
			sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
			squashAt = gs[len(gs)-1]
			for _, g := range gs {
				if g < squashAt {
					survived++
				}
			}
			m.requestSquash(squashAt)
			forced++
		}
		if skip {
			if next := m.NextEvent(now); next > now {
				if stop := (now/every + 1) * every; next > stop {
					next = stop
				}
				m.SkipTo(now, next)
				now = next
				continue
			}
		}
		m.Cycle(now)
		if squashAt != 0 {
			for _, e := range m.remote {
				if e.g >= m.lastSquashGSeq {
					t.Fatalf("cycle %d: waiter %d survived a squash from %d", now, e.g, m.lastSquashGSeq)
				}
			}
		}
		checkRemoteWaiters(t, m, now)
		now++
	}
	return now, forced, survived
}

// Squashing while consumers sleep on remote unissued producers drops
// exactly the squashed enrolments: no stale entry can wake a recycled
// uop, survivors are still woken (the run completes), and the skipping
// drain matches the ticked one under the same forced squashes.
func TestSquashWithRemoteWaiters(t *testing.T) {
	survivors := 0
	for _, wl := range []string{"milc", "sjeng", "hmmer"} {
		run := func(skip bool) (string, int, int) {
			m := mustMachine(t, chanConfig(), wkTrace(t, wl, 5_000))
			cycles, forced, survived := drainForcingSquashes(t, m, skip, 61)
			b, err := json.Marshal(m.Summarize(cycles))
			if err != nil {
				t.Fatal(err)
			}
			return string(b), forced, survived
		}
		skip, forced, survived := run(true)
		tick, _, _ := run(false)
		if forced == 0 {
			t.Errorf("%s: no consumer ever slept on a remote producer at a squash point", wl)
		}
		survivors += survived
		if skip != tick {
			t.Errorf("%s: skipping drain diverges from ticked under forced squashes\n skip: %s\n tick: %s", wl, skip, tick)
		}
	}
	if survivors == 0 {
		t.Error("no enrolment ever survived a forced squash; the drill must exercise survivors")
	}
}

// An installed fault injector makes no cross-core answer binding: a
// consumer re-polls every cycle, and each poll consults the injector.
// The poll counts and watchdog diagnostics of fixed stall drills are
// pinned to the values of the every-cycle polling engine.
func TestInjectedStallPollsEveryCycle(t *testing.T) {
	cases := []struct {
		wl    string
		insts uint64
		from  int64
		polls int64
		diag  string
	}{
		{"gobmk", 3_000, 0, 100127, "fgstp: livelock at cycle 100557 (100001 cycles without commit; " +
			"next-commit gseq 69 of 3000, delivered 276; core0 33 committed/119 in flight, " +
			"core1 36 committed/105 in flight; chan in-flight 0/0, transfers 0/0; " +
			"0 squashes, last at gseq 0 cycle 0)"},
		{"gcc", 4_000, 1_500, 200058, "fgstp: livelock at cycle 101576 (100001 cycles without commit; " +
			"next-commit gseq 263 of 4000, delivered 292; core0 115 committed/16 in flight, " +
			"core1 148 committed/15 in flight; chan in-flight 0/0, transfers 15/1; " +
			"0 squashes, last at gseq 0 cycle 0)"},
	}
	for _, tc := range cases {
		stall := faults.ChannelStall(tc.from)
		_, err := RunWith(config.Medium(), wkTrace(t, tc.wl, tc.insts), stall, nil)
		var le *LivelockError
		if !errors.As(err, &le) {
			t.Fatalf("%s: stalled run returned %v, want a livelock", tc.wl, err)
		}
		if stall.Polls() != tc.polls || err.Error() != tc.diag {
			t.Errorf("%s stall from %d: %d refused polls, diagnostic\n %s\nwant %d polls,\n %s",
				tc.wl, tc.from, stall.Polls(), err, tc.polls, tc.diag)
		}
	}
}

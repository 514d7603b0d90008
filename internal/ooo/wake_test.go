package ooo

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/trace"
)

// chainTrace is a loop whose body is a cache-missing load feeding a
// serial chain of adds with two consumers at its end: the chain sleeps
// on unissued local producers behind the load for the whole miss, so
// most of the window is off the candidate list, and the tail's waiter
// chain holds two uops while the tail itself is off the list.
func chainTrace(iters int64) *trace.Trace {
	b := program.NewBuilder("chain")
	b.Li(isa.R1, 0x400000)
	b.Li(isa.R2, iters)
	b.Label("loop")
	b.Ld(isa.R3, isa.R1, 0)
	for i := 0; i < 8; i++ {
		b.Add(isa.R3, isa.R3, isa.R3)
	}
	b.Add(isa.R4, isa.R4, isa.R3) // two consumers of the chain's tail
	b.Add(isa.R5, isa.R5, isa.R3)
	b.Addi(isa.R1, isa.R1, 4096) // a new line every iteration
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "loop")
	b.Halt()
	return trace.Capture(b.MustBuild(), 0)
}

// checkScanState asserts the issue scan's invariants between cycles and
// returns how many unissued uops sleep off the candidate list:
//   - cand is in GSeq order and holds no uop asleep on an unissued local
//     producer (wakeAt == sleepForever with the block not external);
//   - every dispatched, unissued ROB entry is either on cand exactly
//     once or on the waiter chain of the unissued ROB producer it
//     waits on — a uop in neither place would never issue again.
func checkScanState(t *testing.T, c *Core, now int64) int {
	t.Helper()
	onList := make(map[*UOp]bool, len(c.cand))
	for i, u := range c.cand {
		if u.wakeAt == sleepForever && !u.extSleep {
			t.Fatalf("cycle %d: gseq %d on the candidate list while asleep on a local producer", now, u.Item.GSeq)
		}
		if i > 0 && c.cand[i-1].Item.GSeq >= u.Item.GSeq {
			t.Fatalf("cycle %d: candidate list out of GSeq order at %d", now, i)
		}
		if u.issued {
			t.Fatalf("cycle %d: issued gseq %d on the candidate list", now, u.Item.GSeq)
		}
		onList[u] = true
	}
	off := 0
	for i := 0; i < c.rob.len(); i++ {
		u := c.rob.at(i)
		if u.issued || onList[u] {
			continue
		}
		off++
		p := c.wlookup(u.waitingOn)
		if u.waitingOn == freedGSeq || p == nil || p.issued {
			t.Fatalf("cycle %d: unissued gseq %d is neither a candidate nor waiting on an unissued producer", now, u.Item.GSeq)
		}
		found := false
		for w := p.waiters; w != nil; w = w.nextWaiter {
			if w == u {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cycle %d: gseq %d is off the list but missing from producer %d's waiter chain", now, u.Item.GSeq, p.Item.GSeq)
		}
	}
	return off
}

// bruteOldestUnfinished is OldestUnfinished without the finished-prefix
// memo: a full ROB scan, then the fetch queue.
func bruteOldestUnfinished(c *Core, now int64) (uint64, bool) {
	for i := 0; i < c.rob.len(); i++ {
		if u := c.rob.at(i); !u.issued || u.completeAt > now {
			return u.Item.GSeq, true
		}
	}
	if c.fetchq.len() > 0 {
		return c.fetchq.front().Item.GSeq, true
	}
	return 0, false
}

// Sleepers on an unissued local producer leave the candidate list and
// come back through the producer's waiter chain: after every cycle of a
// chain-behind-a-miss run the list holds none of them, and none is lost.
// The run must also actually park uops off the list, and drain fully.
func TestIssueScanDropsProducerSleepers(t *testing.T) {
	tr := chainTrace(300)
	c := mustCore(t, testConfig(), tr)
	maxOff := 0
	var now int64
	for ; !c.Done(); now++ {
		c.Cycle(now)
		if off := checkScanState(t, c, now); off > maxOff {
			maxOff = off
		}
		if now > int64(tr.Len())*1000 {
			t.Fatalf("livelock after %d cycles (%d committed)", now, c.Committed())
		}
	}
	if maxOff < 4 {
		t.Errorf("at most %d uops slept off the candidate list; the chain should park several", maxOff)
	}
	if c.Committed() != uint64(tr.Len()) {
		t.Errorf("committed %d of %d", c.Committed(), tr.Len())
	}
}

// A squash between two waiters of one producer keeps the older waiter
// on the chain even when the producer is itself asleep off the
// candidate list: the purge walks the ROB, not the list. Losing the
// survivor would strand it (neither on the list nor on a chain).
func TestSquashKeepsOlderWaiters(t *testing.T) {
	tr := chainTrace(300)
	c := mustCore(t, testConfig(), tr)
	onList := func(p *UOp) bool {
		for _, u := range c.cand {
			if u == p {
				return true
			}
		}
		return false
	}
	squashes := 0
	var now int64
	for ; !c.Done(); now++ {
		c.Cycle(now)
		if now%5 == 0 {
			for i := 0; i < c.rob.len(); i++ {
				p := c.rob.at(i)
				if p.issued || p.waiters == nil || p.waiters.nextWaiter == nil || onList(p) {
					continue
				}
				// The chain is LIFO: its head enrolled last. Squash from the
				// youngest waiter so an older one survives.
				young := p.waiters.Item.GSeq
				for w := p.waiters; w != nil; w = w.nextWaiter {
					if w.Item.GSeq > young {
						young = w.Item.GSeq
					}
				}
				c.SquashFrom(young, now)
				squashes++
				break
			}
		}
		checkScanState(t, c, now)
		if now > int64(tr.Len())*1000 {
			t.Fatalf("livelock after %d cycles (%d committed)", now, c.Committed())
		}
	}
	if squashes == 0 {
		t.Fatal("no off-list producer ever held two waiters; the drill squashed nothing")
	}
	if c.Committed() != uint64(tr.Len()) {
		t.Errorf("committed %d of %d", c.Committed(), tr.Len())
	}
}

// The incremental commit frontier agrees with a brute-force ROB scan
// after every cycle of a run with random squashes (the
// TestRandomSquashDeterministic setup), including when a caller goes
// back to an earlier cycle; the scan invariants hold across squashes.
func TestOldestUnfinishedMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := randomTrace(seed, 1200)
		rng := rand.New(rand.NewSource(seed * 7))
		hier, err := mem.NewHierarchy(testHier())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCore(testConfig(), hier, NewTraceStream(tr), &commitRecorder{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(now, at int64) {
			t.Helper()
			g, ok := c.OldestUnfinished(at)
			bg, bok := bruteOldestUnfinished(c, at)
			if g != bg || ok != bok {
				t.Fatalf("seed %d cycle %d: OldestUnfinished(%d) = %d,%v; scan says %d,%v",
					seed, now, at, g, ok, bg, bok)
			}
		}
		var now int64
		for ; !c.Done(); now++ {
			c.Cycle(now)
			check(now, now)
			if rng.Intn(400) == 0 && c.InFlight() > 1 {
				if g, ok := c.OldestUncommitted(); ok {
					c.SquashFrom(g+uint64(rng.Intn(c.InFlight())), now)
					check(now, now)
				}
			}
			if rng.Intn(50) == 0 {
				check(now, now-int64(rng.Intn(20))) // an earlier cycle restarts the scan
				check(now, now)
			}
			checkScanState(t, c, now)
			if now > int64(tr.Len())*1000 {
				t.Fatalf("seed %d: livelock after %d cycles", seed, now)
			}
		}
	}
}

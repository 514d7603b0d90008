package core

import (
	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/ooo"
	"repro/internal/trace"
)

// coreStream is the per-core fetch queue the sequencer fills and the
// core's front end drains. It implements ooo.Stream. The queue is a
// fixed-capacity ring (capacity queueCap, enforced by fill's space
// checks): the old `q = q[1:]` slice idiom abandoned the backing
// array's head on every delivered instruction and reallocated on
// refill, a per-instruction allocation on the hottest path. Vacated
// slots are not cleared — items only reference the trace and the
// steering cache, both of which live for the whole run.
type coreStream struct {
	buf  []ooo.FetchItem
	mask int
	head int
	n    int
	seq  *sequencer
}

func newCoreStream(capacity int, seq *sequencer) *coreStream {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &coreStream{buf: make([]ooo.FetchItem, size), mask: size - 1, seq: seq}
}

func (s *coreStream) len() int { return s.n }

func (s *coreStream) push(item ooo.FetchItem) {
	s.buf[(s.head+s.n)&s.mask] = item
	s.n++
}

// Peek implements ooo.Stream.
func (s *coreStream) Peek(now int64) (ooo.FetchItem, bool) {
	if s.n == 0 {
		return ooo.FetchItem{}, false
	}
	return s.buf[s.head], true
}

// Advance implements ooo.Stream.
func (s *coreStream) Advance() {
	s.head = (s.head + 1) & s.mask
	s.n--
}

// Rewind implements ooo.Stream. The core calls it during a squash; the
// global rewind (sequencer position, sibling core) is coordinated by
// the machine, which squashes both cores and then rewinds the
// sequencer, so here we only drop our own too-young items (a suffix:
// deliveries are in GSeq order).
func (s *coreStream) Rewind(gseq uint64) {
	for s.n > 0 && s.buf[(s.head+s.n-1)&s.mask].GSeq >= gseq {
		s.n--
	}
}

// Exhausted implements ooo.Stream.
func (s *coreStream) Exhausted() bool {
	return s.n == 0 && s.seq.pos >= uint64(s.seq.tr.Len())
}

// sequencer is the Fg-STP global front end: it walks the trace at up to
// FetchBandwidth instructions per cycle, runs the shared branch
// predictor, charges I-cache fetches cooperatively across both cores'
// L1Is, respects the lookahead window relative to global commit, and
// delivers steered instructions (and replicas) into the per-core
// queues.
type sequencer struct {
	cfg   config.FgSTP
	tr    *trace.Trace
	st    *steerer
	pred  *bpred.Predictor
	hiers [2]*mem.Hierarchy

	streams [2]*coreStream
	pos     uint64 // next trace index to deliver

	stallUntil    int64
	blockedOn     uint64 // gseq of unresolved mispredicted branch
	blocked       bool
	lastFetchLine [2]uint64

	// queueCap bounds each per-core queue (the partitioned fetch
	// buffer).
	queueCap int

	// onDeliver, when set, is called once per delivered instruction
	// with its home core and whether a replica was steered to the
	// sibling — the machine uses it to track in-flight stores for
	// cross-core disambiguation and to emit steer/replicate events.
	onDeliver func(d *isa.DynInst, gseq uint64, home int, replica bool, now int64)

	// Stats.
	Mispredicts       uint64
	IndirectMiss      uint64
	ICacheStalls      int64
	WindowStalls      int64
	BranchStalls      int64
	Delivered         uint64
	ReplicaDeliveries uint64
}

func newSequencer(cfg config.FgSTP, pcfg bpred.Config, tr *trace.Trace, st *steerer, h0, h1 *mem.Hierarchy) (*sequencer, error) {
	pred, err := bpred.New(pcfg)
	if err != nil {
		return nil, err
	}
	s := &sequencer{
		cfg:      cfg,
		tr:       tr,
		st:       st,
		pred:     pred,
		hiers:    [2]*mem.Hierarchy{h0, h1},
		queueCap: 16 * cfg.FetchBandwidth,
	}
	s.streams[0] = newCoreStream(s.queueCap, s)
	s.streams[1] = newCoreStream(s.queueCap, s)
	s.lastFetchLine[0] = ^uint64(0)
	s.lastFetchLine[1] = ^uint64(0)
	return s, nil
}

// resolveBranch unblocks the sequencer once the mispredicted branch at
// gseq resolves at cycle when (called by the coordinator from the
// OnComplete hook). The redirect crosses the dedicated fabric, so it
// pays the inter-core communication latency on top of resolution.
func (s *sequencer) resolveBranch(gseq uint64, when int64) {
	if s.blocked && s.blockedOn == gseq {
		s.blocked = false
		if t := when + int64(s.cfg.CommLatency); t > s.stallUntil {
			s.stallUntil = t
		}
	}
}

// rewind repositions the sequencer after a global squash to gseq.
func (s *sequencer) rewind(gseq uint64, now int64) {
	s.pos = gseq
	if s.blocked && s.blockedOn >= gseq {
		s.blocked = false
	}
	if s.stallUntil < now+1 {
		s.stallUntil = now + 1
	}
	// Refetch re-touches the I-cache lines.
	s.lastFetchLine[0] = ^uint64(0)
	s.lastFetchLine[1] = ^uint64(0)
}

// fill delivers up to the fetch bandwidth of steered instructions into
// the per-core queues for cycle now. nextCommit bounds the lookahead
// window.
func (s *sequencer) fill(now int64, nextCommit uint64) {
	if s.blocked {
		s.BranchStalls++
		return
	}
	if now < s.stallUntil {
		s.ICacheStalls++
		return
	}
	for budget := s.cfg.FetchBandwidth; budget > 0; budget-- {
		if s.pos >= uint64(s.tr.Len()) {
			return
		}
		if s.pos >= nextCommit+uint64(s.cfg.Window) {
			s.WindowStalls++
			return
		}
		d := s.tr.At(int(s.pos))
		inf := s.st.info(s.pos)

		// Queue space: the home core (and the sibling, for replicas)
		// must have room.
		if s.streams[inf.home].len() >= s.queueCap {
			return
		}
		if inf.replica && s.streams[1-inf.home].len() >= s.queueCap {
			return
		}

		// Cooperative I-cache: lines alternate between the two cores'
		// L1Is; a miss stalls the shared front end.
		core := int(inf.home)
		line := s.hiers[core].L1I.LineAddr(d.PC)
		if line != s.lastFetchLine[core] {
			lat := s.hiers[core].Fetch(d.PC)
			s.lastFetchLine[core] = line
			if hit := s.hiers[core].L1I.Config().LatencyCycles; lat > hit {
				s.stallUntil = now + int64(lat-hit)
				return
			}
		}

		// Shared branch prediction. Mispredicts block delivery until
		// the branch resolves on its core.
		stop := false
		if d.IsCtrl() {
			stop = s.observeControl(d)
		}

		item := ooo.FetchItem{DI: d, GSeq: s.pos, Deps: &inf.deps}
		s.streams[inf.home].push(item)
		s.Delivered++
		if s.onDeliver != nil {
			s.onDeliver(d, s.pos, int(inf.home), inf.replica, now)
		}
		if inf.replica {
			rep := item
			rep.Replica = true
			s.streams[1-inf.home].push(rep)
			s.ReplicaDeliveries++
		}
		s.pos++
		if stop {
			return
		}
	}
}

// observeControl runs the shared predictor on a control instruction and
// reports whether delivery must stop this cycle (mispredict block or
// taken-flow fetch break).
func (s *sequencer) observeControl(d *isa.DynInst) bool {
	switch d.Class {
	case isa.ClassBranch:
		if !s.pred.ObserveBranch(d.PC, d.Taken) {
			s.Mispredicts++
			s.blocked = true
			s.blockedOn = d.Seq
			return true
		}
		return d.Taken
	case isa.ClassJump:
		correct := true
		switch {
		case d.IsRet:
			correct = s.pred.ObserveReturn(d.Target)
		case d.Indirect:
			correct = s.pred.ObserveIndirect(d.PC, d.Target)
		}
		if d.IsCall {
			s.pred.ObserveCall(d.PC + isa.InstBytes)
		}
		if !correct {
			s.IndirectMiss++
			s.blocked = true
			s.blockedOn = d.Seq
			return true
		}
		return true
	}
	return false
}

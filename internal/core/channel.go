package core

// channel models one direction of the inter-core register-value
// fabric: an in-order pipe that accepts at most bandwidth values per
// cycle and holds at most queue values in flight (granted but not yet
// delivered, i.e. within the latency window). A transfer requested at
// cycle t is granted the earliest slot >= t satisfying both limits and
// delivered at slot + latency.
//
// Requests may arrive with non-monotonic timestamps (issue order is not
// completion order); the grant table handles that generally.
//
// The grant table is a ring of per-slot counters covering a sliding
// window of cycles [lo, lo+channelRingSize): grants land at most a few
// thousand cycles apart, so the common case is one array access where
// a map would hash and churn buckets every transfer. Slots that fall
// out of the window before being pruned spill, value-preserving, into
// the cold map; the prune policy (drop slots older than the request by
// slack) is replicated from the map implementation byte-for-byte so a
// request arriving with an old timestamp observes exactly the same
// occupancy it always did.
type channel struct {
	latency   int64
	bandwidth int
	queue     int

	grants []int32
	// lo is the first cycle the ring covers; cells for cycles below it
	// live in cold (and are dropped by pruning, as before).
	lo int64
	// cold holds grant counts for slots below lo. nil until a request
	// actually lands there (it never does in the steady state).
	cold map[int64]int32
	// low watermark for pruning the grant table.
	minActive int64

	// Transfers counts granted transfers; Delayed counts transfers
	// whose grant slot was later than requested (contention).
	Transfers uint64
	Delayed   uint64
	// DelaySum accumulates slot-minus-request cycles for contention
	// reporting.
	DelaySum uint64
}

// channelRingSize is the cycle span of the grant ring; far wider than
// the prune slack, so slides and spills only happen on pathological
// timestamp jumps.
const channelRingSize = 1 << 16

func newChannel(latency, bandwidth, queue int) *channel {
	return &channel{
		latency:   int64(latency),
		bandwidth: bandwidth,
		queue:     queue,
		grants:    make([]int32, channelRingSize),
	}
}

// get returns the grant count of slot s, wherever it lives.
func (c *channel) get(s int64) int32 {
	switch {
	case s < c.lo:
		return c.cold[s]
	case s < c.lo+channelRingSize:
		return c.grants[s&(channelRingSize-1)]
	default:
		// Beyond the window nothing has been granted (any grant there
		// would have slid the window first).
		return 0
	}
}

// incr counts one grant at slot s.
func (c *channel) incr(s int64) {
	if s < c.lo {
		if c.cold == nil {
			c.cold = make(map[int64]int32)
		}
		c.cold[s]++
		return
	}
	if s >= c.lo+channelRingSize {
		c.slide(s)
	}
	c.grants[s&(channelRingSize-1)]++
}

// slide advances the window so that slot s fits, with probing headroom
// above it. Evicted cells keep their counts in the cold map — sliding
// repositions the representation, only pruning forgets.
func (c *channel) slide(s int64) {
	newLo := s - channelRingSize/8
	end := newLo
	if end > c.lo+channelRingSize {
		end = c.lo + channelRingSize
	}
	for x := c.lo; x < end; x++ {
		if v := c.grants[x&(channelRingSize-1)]; v != 0 {
			if c.cold == nil {
				c.cold = make(map[int64]int32)
			}
			c.cold[x] = v
			c.grants[x&(channelRingSize-1)] = 0
		}
	}
	c.lo = newLo
}

// occupancy returns the number of values in flight at slot: granted in
// the window (slot-latency, slot].
func (c *channel) occupancy(slot int64) int {
	occ := 0
	for x := slot - c.latency + 1; x <= slot; x++ {
		occ += int(c.get(x))
	}
	return occ
}

// grant reserves a slot for a transfer requested at cycle t and returns
// the delivery cycle.
func (c *channel) grant(t int64) int64 {
	slot := t
	if slot >= c.lo+channelRingSize {
		c.slide(slot)
	}
	for {
		if int(c.get(slot)) >= c.bandwidth {
			slot++
			continue
		}
		if c.latency > 0 && c.occupancy(slot)+1 > c.queue {
			slot++
			continue
		}
		break
	}
	c.incr(slot)
	c.Transfers++
	if slot > t {
		c.Delayed++
		c.DelaySum += uint64(slot - t)
	}
	c.maybePrune(t)
	return slot + c.latency
}

// maybePrune drops grant-table entries far older than the current
// request time; requests never go backwards by more than a pipeline's
// worth of cycles. The policy is identical to the map-based table's:
// everything below t-slack is forgotten once requests have advanced
// 2*slack past the watermark.
func (c *channel) maybePrune(t int64) {
	const slack = 4096
	if t-c.minActive < 2*slack {
		return
	}
	cut := t - slack
	end := cut
	if end > c.lo+channelRingSize {
		end = c.lo + channelRingSize
	}
	for x := c.lo; x < end; x++ {
		c.grants[x&(channelRingSize-1)] = 0
	}
	if cut > c.lo {
		c.lo = cut
	}
	for k := range c.cold {
		if k < cut {
			delete(c.cold, k)
		}
	}
	c.minActive = cut
}

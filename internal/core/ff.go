package core

import "casino/internal/eventq"

// NextWake returns the earliest cycle >= now at which the core might make
// progress, driving the event-driven clock. Two O(1) pre-checks catch the
// streaming progress the wakeup queue deliberately does not track — dispatch
// into the first S-IQ and fetch — and everything else comes from the shared
// queue, on which every stored future cycle (completion times, stall
// expiries, busy-until slots, the remote injector's schedule) was registered
// when it was stored. It never walks the queues; FastForward's embedded
// cycle is the progress check.
func (c *Core) NextWake() int64 {
	now := c.now
	if c.fe.BufLen() > 0 && c.queues[0].len() < c.queues[0].cap() {
		return now
	}
	if c.fe.NextFetchEvent(now) <= now {
		return now
	}
	return c.wq.Horizon(now)
}

// WakeStats exposes the shared wakeup queue's activity counters.
func (c *Core) WakeStats() eventq.Stats { return c.wq.Stats() }

// ProgressSignature folds the fast-forward progress signature into one
// value. The event-driven driver consults the wakeup queue only after a
// cycle that left it unchanged, and the sim package's property tests use it
// to detect, from outside, whether a cycle changed observable state.
func (c *Core) ProgressSignature() uint64 {
	// FNV-1a chained by hand: this runs on every commit-free cycle, so it
	// must not materialize an array (stack copies) per call.
	const p = 1099511628211
	var s ffSig
	c.ffSig(&s)
	h := uint64(1469598103934665603)
	h = (h ^ s.committed) * p
	h = (h ^ s.fetched) * p
	h = (h ^ s.issued) * p
	h = (h ^ s.l1) * p
	h = (h ^ s.flushes) * p
	h = (h ^ s.remote) * p
	h = (h ^ uint64(s.queues)) * p
	h = (h ^ uint64(s.rob)) * p
	h = (h ^ uint64(s.sq)) * p
	h = (h ^ uint64(s.lq)) * p
	h = (h ^ uint64(s.dbUsed)) * p
	h = (h ^ uint64(s.buf)) * p
	return h
}

// ffSig is the cheap progress signature guarding FastForward. The queue
// lengths fold positionally so a pass (which conserves total occupancy but
// moves an entry between queues) still changes the signature.
type ffSig struct {
	committed, fetched, issued, l1, flushes, remote uint64
	queues, rob, sq, lq, dbUsed, buf                int
}

// ffSig fills s in place: it runs twice per fast-forward attempt, and
// returning the 96-byte struct by value showed up as duffcopy in profiles.
func (c *Core) ffSig(s *ffSig) {
	qh := 0
	for i := range c.queues {
		qh = qh*257 + c.queues[i].len()
	}
	s.committed = c.committed
	s.fetched = c.fe.Fetched
	s.issued = c.fus.IssuedTotal()
	s.l1 = c.acct.L1Access
	s.flushes = c.Flushes
	s.queues = qh
	s.rob = c.rob.len()
	s.sq = c.sq.Len()
	s.dbUsed = c.dbUsed
	s.buf = c.fe.BufLen()
	s.lq = 0
	if c.lq != nil {
		s.lq = c.lq.Len()
	}
	s.remote = 0
	if c.remote != nil {
		s.remote = c.remote.Invalidations
	}
}

// FastForward runs one real Cycle() and, if that cycle turned out idle,
// jumps the clock toward `to`. The embedded cycle performs the exact
// idle-cycle accounting — occupancy samples, stall diagnostics, CPI
// buckets, and the energy accountant's charges (the frozen window's RAT and
// scoreboard reads, the static per-cycle costs) — and its deltas are
// replayed in bulk for the skipped cycles. Cycle() stays the single source
// of truth; FastForward never re-derives a charge.
//
// Returns false when the embedded cycle changed observable state: the cycle
// stands as a normal, fully-accounted cycle and nothing was skipped (the
// event-driven driver attempts jumps optimistically, so a bail is routine,
// not an error). On the idle path the jump target is re-clamped by the
// queue's post-cycle horizon — the embedded cycle itself may have registered
// a nearer wakeup (an I-cache refill it started, say) that the pre-cycle
// NextWake could not see.
func (c *Core) FastForward(to int64) bool {
	var sig ffSig
	c.ffSig(&sig)
	c.acct.BeginDelta()
	st0 := [6]uint64{c.StallIQFull, c.StallPReg, c.StallProdCount, c.StallROBSQ, c.StallFU, c.StallDataBuf}
	cpi0 := c.cpi
	c.Cycle()
	var sig2 ffSig
	c.ffSig(&sig2)
	if sig2 != sig {
		return false
	}
	if h := c.wq.Horizon(c.now); h < to {
		to = h
	}
	n := to - c.now
	if n <= 0 {
		return true
	}
	un := uint64(n)
	c.acct.ScaleDelta(un)
	c.StallIQFull += (c.StallIQFull - st0[0]) * un
	c.StallPReg += (c.StallPReg - st0[1]) * un
	c.StallProdCount += (c.StallProdCount - st0[2]) * un
	c.StallROBSQ += (c.StallROBSQ - st0[3]) * un
	c.StallFU += (c.StallFU - st0[4]) * un
	c.StallDataBuf += (c.StallDataBuf - st0[5]) * un
	c.cpi.ScaleDelta(&cpi0, un)
	c.OccSIQ.AddN(c.queues[0].len(), un)
	c.OccIQ.AddN(c.queues[len(c.queues)-1].len(), un)
	c.OccROB.AddN(c.rob.len(), un)
	c.OccSQ.AddN(c.sq.Len(), un)
	c.now += n
	return true
}

package ino

import "casino/internal/eventq"

// NextWake returns the earliest cycle >= now at which the core might make
// progress, driving the event-driven clock. Dispatch and fetch progress are
// the only state changes not tied to a registered wakeup, so two O(1)
// pre-checks cover them and the shared queue covers everything else.
func (c *Core) NextWake() int64 {
	now := c.now
	if c.fe.BufLen() > 0 && c.iq.len() < c.cfg.IQSize {
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
// cycle that left it unchanged, and the sim package's property tests
// compare it across an event-driven core and a stepped replica.
func (c *Core) ProgressSignature() uint64 {
	// FNV-1a chained by hand: this runs on every commit-free cycle, so it
	// must not materialize an array (stack copies) per call.
	const p = 1099511628211
	s := c.ffSig()
	h := uint64(1469598103934665603)
	h = (h ^ s.committed) * p
	h = (h ^ s.fetched) * p
	h = (h ^ s.issued) * p
	h = (h ^ s.l1) * p
	h = (h ^ uint64(s.iq)) * p
	h = (h ^ uint64(s.win)) * p
	h = (h ^ uint64(s.sb)) * p
	h = (h ^ uint64(s.buf)) * p
	return h
}

// ffSig is a cheap progress signature: if any field changes across a cycle,
// that cycle was not idle.
type ffSig struct {
	committed, fetched, issued, l1 uint64
	iq, win, sb, buf               int
}

func (c *Core) ffSig() ffSig {
	return ffSig{
		committed: c.committed,
		fetched:   c.fe.Fetched,
		issued:    c.fus.IssuedTotal(),
		l1:        c.acct.L1Access,
		iq:        c.iq.len(),
		win:       c.win.len(),
		sb:        c.sb.Len(),
		buf:       c.fe.BufLen(),
	}
}

// FastForward runs one real Cycle() and, if that cycle turned out idle,
// jumps the clock toward `to`. Cycle() remains the single source of truth
// for per-cycle accounting; the embedded cycle's deltas (energy counts,
// stall counters, occupancy samples) are replayed in bulk for the skipped
// copies. Returns false when the embedded cycle changed observable state —
// the cycle stands as a normal cycle and nothing was skipped. The jump
// target is re-clamped by the queue's post-cycle horizon, which sees any
// wakeup the embedded cycle itself registered.
func (c *Core) FastForward(to int64) bool {
	sig := c.ffSig()
	c.acct.BeginDelta()
	src0, res0 := c.IssueStallsSrc, c.IssueStallsRes
	cpi0 := c.cpi
	c.Cycle()
	if c.ffSig() != sig {
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
	c.IssueStallsSrc += (c.IssueStallsSrc - src0) * un
	c.IssueStallsRes += (c.IssueStallsRes - res0) * un
	c.cpi.ScaleDelta(&cpi0, un)
	c.OccIQ.AddN(c.iq.len(), un)
	c.OccSCB.AddN(c.win.len(), un)
	c.OccSB.AddN(c.sb.Len(), un)
	c.now += n
	return true
}

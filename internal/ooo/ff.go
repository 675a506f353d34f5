package ooo

import "casino/internal/eventq"

// NextWake returns the earliest cycle >= now at which the core might make
// progress, driving the event-driven clock. The O(1) pre-checks ask
// dispatch's own gate and fetch — the streaming progress the wakeup queue
// does not track — and the shared queue covers every timed event, so it
// never scans the scheduler.
func (c *Core) NextWake() int64 {
	now := c.now
	if op := c.fe.Peek(0); op != nil && c.canDispatch(op) {
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
	h = (h ^ s.flushes) * p
	h = (h ^ uint64(s.n)) * p
	h = (h ^ uint64(s.iqN)) * p
	h = (h ^ uint64(s.sq)) * p
	h = (h ^ uint64(s.lq)) * p
	h = (h ^ uint64(s.buf)) * p
	return h
}

// ffSig is the cheap progress signature guarding FastForward.
type ffSig struct {
	committed, fetched, issued, l1, flushes uint64
	n, iqN, sq, lq, buf                     int
}

func (c *Core) ffSig() ffSig {
	s := ffSig{
		committed: c.committed,
		fetched:   c.fe.Fetched,
		issued:    c.fus.IssuedTotal(),
		l1:        c.acct.L1Access,
		flushes:   c.Flushes,
		n:         c.n,
		iqN:       c.iqN,
		sq:        c.sq.Len(),
		buf:       c.fe.BufLen(),
	}
	if c.lq != nil {
		s.lq = c.lq.Len()
	}
	return s
}

// FastForward runs one real Cycle() and, if that cycle turned out idle,
// jumps the clock toward `to`: the embedded cycle supplies the exact
// idle-cycle accounting (Cycle stays the single source of truth), whose
// deltas are then replayed in bulk for the skipped cycles. Returns false
// when the embedded cycle changed observable state — it stands as a normal
// cycle and nothing was skipped. The jump target is re-clamped by the
// queue's post-cycle horizon, which sees any wakeup the embedded cycle
// itself registered.
func (c *Core) FastForward(to int64) bool {
	sig := c.ffSig()
	c.acct.BeginDelta()
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
	c.cpi.ScaleDelta(&cpi0, un)
	c.OccROB.AddN(c.n, un)
	c.OccIQ.AddN(c.iqN, un)
	c.OccSQ.AddN(c.sq.Len(), un)
	if c.OccLQ != nil {
		c.OccLQ.AddN(c.lq.Len(), un)
	}
	c.now += n
	return true
}

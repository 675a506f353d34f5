package slice

import "casino/internal/eventq"

// NextWake returns the earliest cycle >= now at which the core might make
// progress, driving the event-driven clock. The pre-check asks dispatch's
// own steering (Freeway's Y-IQ decision included) plus fetch; every timed
// event — producer completions that unblock a queue head or re-steer a
// dispatch, FU busy-until slots, SB retirement, stall expiries — was
// registered on the shared queue when its time was stored.
func (c *Core) NextWake() int64 {
	now := c.now
	if op := c.fe.Peek(0); op != nil && c.window.len() < c.window.cap() {
		if q, _, _, _ := c.steer(op); q.len() < q.cap() {
			return now
		}
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
	h = (h ^ uint64(s.window)) * p
	h = (h ^ uint64(s.aq)) * p
	h = (h ^ uint64(s.bq)) * p
	h = (h ^ uint64(s.yq)) * p
	h = (h ^ uint64(s.sb)) * p
	h = (h ^ uint64(s.buf)) * p
	return h
}

// ffSig is the cheap progress signature guarding FastForward.
type ffSig struct {
	committed, fetched, issued, l1 uint64
	window, aq, bq, yq, sb, buf    int
}

func (c *Core) ffSig() ffSig {
	return ffSig{
		committed: c.committed,
		fetched:   c.fe.Fetched,
		issued:    c.fus.IssuedTotal(),
		l1:        c.acct.L1Access,
		window:    c.window.len(),
		aq:        c.aq.len(),
		bq:        c.bq.len(),
		yq:        c.yq.len(),
		sb:        c.sb.Len(),
		buf:       c.fe.BufLen(),
	}
}

// FastForward runs one real Cycle() and, if that cycle turned out idle,
// jumps the clock toward `to`: the embedded cycle supplies the exact
// idle-cycle accounting (including the per-queue scoreboard reads and the
// IST read a dispatch-blocked cycle charges), and its deltas are replayed
// in bulk for the skipped cycles. Returns false when the embedded cycle
// changed observable state — it stands as a normal cycle and nothing was
// skipped. The jump target is re-clamped by the queue's post-cycle horizon,
// which sees any wakeup the embedded cycle itself registered.
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
	c.OccAQ.AddN(c.aq.len(), un)
	c.OccBQ.AddN(c.bq.len(), un)
	if c.OccYQ != nil {
		c.OccYQ.AddN(c.yq.len(), un)
	}
	c.OccWindow.AddN(c.window.len(), un)
	c.OccSB.AddN(c.sb.Len(), un)
	c.now += n
	return true
}

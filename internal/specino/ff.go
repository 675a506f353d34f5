package specino

import (
	"math/bits"

	"casino/internal/eventq"
)

// NextWake returns the earliest cycle >= now at which the core might make
// progress, driving the event-driven clock. SpecInO is the one model the
// shared wakeup queue cannot cover alone: its scheduling window slides by SO
// positions every cycle in which it issues nothing, creating issue
// opportunities at times stored nowhere. NextWake therefore combines the
// queue with slideEvent's closed-form window-arrival bound.
func (c *Core) NextWake() int64 {
	now := c.now
	if c.fe.BufLen() > 0 && c.n < c.cfg.IQSize {
		return now
	}
	if c.fe.NextFetchEvent(now) <= now {
		return now
	}
	next := c.wq.Horizon(now)
	if t := c.slideEvent(now); t < next {
		next = t
	}
	return next
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
	h = (h ^ uint64(s.buf)) * p
	return h
}

// slideEvent returns the earliest cycle >= now at which the sliding window
// could enable an issue, assuming every cycle from now on is idle (each one
// advancing the window start by SO). Position j is examined at cycle now+k
// when effW+k*SO <= j <= effW+k*SO+WS-1, with effW = max(winPos, i0+1)
// mirroring issue()'s head bump. For each candidate entry the arrival k is
// the later of the window reaching j (kMin) and its operands completing
// (kReady); if the window slides past j first (k > kMax) the entry can only
// issue from the in-order head engine later, which queue events cover.
func (c *Core) slideEvent(now int64) int64 {
	next := eventq.NoEvent
	add := func(t int64) {
		if t > now && t < next {
			next = t
		}
	}
	if c.unissued == 0 {
		return eventq.NoEvent
	}
	i0 := bits.TrailingZeros64(c.unissued)
	effW := c.winPos
	if effW < i0+1 {
		effW = i0 + 1
	}
	ws, so := c.cfg.WS, c.cfg.SO
	for j := effW; j < c.n; j++ {
		if c.unissued&(uint64(1)<<uint(j)) == 0 ||
			(c.cfg.NonMemOnly && c.ops[j].Class.IsMem()) {
			continue
		}
		if c.pending[j] != 0 {
			continue // blocked on an unissued producer
		}
		r := c.readyT[j]
		var kMin int64
		if d := j - (effW + ws - 1); d > 0 {
			kMin = (int64(d) + int64(so) - 1) / int64(so)
		}
		kMax := int64(j-effW) / int64(so)
		kReady := int64(0)
		if r > now {
			kReady = r - now
		}
		k := kMin
		if kReady > k {
			k = kReady
		}
		if k > kMax {
			continue // window slides past j before it becomes ready
		}
		if k == 0 {
			if c.fus.CanIssue(c.ops[j].Class, now) {
				return now
			}
			add(c.fus.NextFree(c.ops[j].Class, now))
			continue
		}
		add(now + k)
	}
	return next
}

// ffSig is the cheap progress signature guarding FastForward. winPos is
// deliberately absent: the window slide is the one benign mutation an idle
// cycle performs, and FastForward accounts for it in closed form.
type ffSig struct {
	committed, fetched, issued, l1 uint64
	iq, buf                        int
}

func (c *Core) ffSig() ffSig {
	return ffSig{
		committed: c.committed,
		fetched:   c.fe.Fetched,
		issued:    c.fus.IssuedTotal(),
		l1:        c.acct.L1Access,
		iq:        c.n,
		buf:       c.fe.BufLen(),
	}
}

// FastForward runs one real Cycle() and, if that cycle turned out idle,
// jumps the clock toward `to`: the embedded cycle supplies the exact
// idle-cycle accounting and performs one window slide; the n skipped cycles
// each slide the window by a further SO, which the closed form below
// replays, capped at the IQ length exactly as issue() caps it. Returns
// false when the embedded cycle changed observable state — it stands as a
// normal cycle and nothing was skipped. The jump target is re-clamped by
// the queue's post-cycle horizon *and* by slideEvent, because the sliding
// window manufactures issue opportunities the queue never saw.
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
	if t := c.slideEvent(c.now); t < to {
		to = t
	}
	n := to - c.now
	if n <= 0 {
		return true
	}
	c.acct.ScaleDelta(uint64(n))
	c.cpi.ScaleDelta(&cpi0, uint64(n))
	if w := c.winPos + c.cfg.SO*int(min64(n, int64(c.n))); true {
		// Guard the multiply against pathological n; the cap below makes any
		// overshoot equivalent.
		if w > c.n || w < c.winPos {
			w = c.n
		}
		c.winPos = w
	}
	c.now += n
	return true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

package specino

import (
	"math/bits"

	"casino/internal/eventq"
	"casino/internal/pipeline"
)

// State reports the IQ occupancy for the shell's progress signature.
// winPos is deliberately absent: the window slide is the one benign
// mutation an idle cycle performs, and Slide accounts for it in closed
// form.
func (c *Core) State() (s pipeline.State) {
	s[0] = uint64(c.n)
	return s
}

// CanDispatch reports whether a buffered op finds an IQ slot.
func (c *Core) CanDispatch() bool { return c.FE.BufLen() > 0 && c.n < c.cfg.IQSize }

// ProgressSignature folds the shell's progress counters and State into one
// value.
func (c *Core) ProgressSignature() uint64 {
	s := c.State()
	return c.Signature(&s)
}

// SlideEvent returns the earliest cycle >= now at which the sliding window
// could enable an issue, assuming every cycle from now on is idle (each one
// advancing the window start by SO). Position j is examined at cycle now+k
// when effW+k*SO <= j <= effW+k*SO+WS-1, with effW = max(winPos, i0+1)
// mirroring issue()'s head bump. For each candidate entry the arrival k is
// the later of the window reaching j (kMin) and its operands completing
// (kReady); if the window slides past j first (k > kMax) the entry can only
// issue from the in-order head engine later, which queue events cover.
func (c *Core) SlideEvent(now int64) int64 {
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
			if c.FUs.CanIssue(c.ops[j].Class, now) {
				return now
			}
			add(c.FUs.NextFree(c.ops[j].Class, now))
			continue
		}
		add(now + k)
	}
	return next
}

// Slide replays the window slide of n skipped idle cycles: each slides
// the window by SO, capped at the IQ length exactly as issue() caps it.
// The shell's NextWake and FastForward bound every jump by SlideEvent,
// because the sliding window manufactures issue opportunities the wakeup
// queue never saw.
func (c *Core) Slide(n int64) {
	w := c.winPos + c.cfg.SO*int(min(n, int64(c.n)))
	// Guard the multiply against pathological n; the cap makes any
	// overshoot equivalent.
	if w > c.n || w < c.winPos {
		w = c.n
	}
	c.winPos = w
}

// Package pipeline holds small building blocks shared by every core model:
// the functional-unit pool and issue-port arbitration helpers.
package pipeline

import (
	"casino/internal/eventq"
	"casino/internal/isa"
)

// FUPool models the execution resources of Table I: 2 integer ALUs, 2 FP
// units and 2 AGUs. Pipelined units accept one op per cycle; unpipelined
// ops (divides) occupy their unit until completion.
type FUPool struct {
	units  [isa.NumFUKinds][]int64 // busy-until cycle per unit
	Issued [isa.NumFUKinds]uint64
	wq     *eventq.Queue
}

// SetWakeQueue attaches the shared wakeup queue. Unpipelined issues register
// their busy-until cycle; pipelined units free next cycle and need no event.
func (p *FUPool) SetWakeQueue(q *eventq.Queue) { p.wq = q }

// NewFUPool creates a pool with n units of each kind.
func NewFUPool(nALU, nFP, nAGU int) *FUPool {
	p := &FUPool{}
	p.units[isa.FUIntALU] = make([]int64, nALU)
	p.units[isa.FUFP] = make([]int64, nFP)
	p.units[isa.FUAGU] = make([]int64, nAGU)
	return p
}

// DefaultFUPool returns the Table I configuration (2/2/2).
func DefaultFUPool() *FUPool { return NewFUPool(2, 2, 2) }

// ScaledFUPool returns a pool scaled for wider machines (width/2 of each
// Table I pair, minimum the Table I counts).
func ScaledFUPool(width int) *FUPool {
	n := width
	if n < 2 {
		n = 2
	}
	return NewFUPool(n, n, n)
}

// CanIssue reports whether an op of class c could begin execution at cycle
// now without occupying the unit.
func (p *FUPool) CanIssue(c isa.Class, now int64) bool {
	for _, busy := range p.units[c.FU()] {
		if busy <= now {
			return true
		}
	}
	return false
}

// NextFree returns the earliest cycle >= now at which an op of class c
// could begin execution: now if a unit is already free, otherwise the
// soonest busy-until time. SpecInO's sliding-window bound (SlideEvent) uses
// it when an otherwise-ready op is blocked only on an occupied
// (unpipelined) unit.
func (p *FUPool) NextFree(c isa.Class, now int64) int64 {
	best := eventq.NoEvent
	for _, busy := range p.units[c.FU()] {
		if busy <= now {
			return now
		}
		if busy < best {
			best = busy
		}
	}
	return best
}

// Issue occupies a unit for an op of class c starting at now, returning
// false if no unit is free. Pipelined classes free the unit next cycle;
// unpipelined ones hold it for their full latency.
func (p *FUPool) Issue(c isa.Class, now int64) bool {
	kind := c.FU()
	for i, busy := range p.units[kind] {
		if busy <= now {
			if c.Pipelined() {
				p.units[kind][i] = now + 1
			} else {
				p.units[kind][i] = now + int64(c.ExecLatency())
				p.wq.Wake(p.units[kind][i])
			}
			p.Issued[kind]++
			return true
		}
	}
	return false
}

// IssuedTotal returns the total issue count across all unit kinds (used as
// part of the fast-forward progress signature).
func (p *FUPool) IssuedTotal() uint64 {
	var t uint64
	for _, n := range p.Issued {
		t += n
	}
	return t
}

// Reset clears occupancy and counters.
func (p *FUPool) Reset() {
	for k := range p.units {
		for i := range p.units[k] {
			p.units[k][i] = 0
		}
		p.Issued[k] = 0
	}
}

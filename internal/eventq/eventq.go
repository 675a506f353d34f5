// Package eventq provides the shared wakeup queue of the event-driven
// simulation engine: an allocation-free binary min-heap of cycle numbers on
// which every latency source — functional-unit completions, MSHR/DRAM
// returns, store-queue retirement, fetch redirects, the remote-invalidation
// injector — registers the next cycle it can change observable core state.
//
// The registration contract (see DESIGN.md, "Clock & event model"): whenever
// a component stores a future cycle number into live state (an instruction's
// completion time, a stall expiry, a busy-until slot), it must Wake the
// queue with that cycle. Everything else a cycle does is a consequence of an
// executed cycle's progress, which the driver never jumps across, so a core
// whose registered horizon is empty over (now, t) is guaranteed to repeat
// the same idle cycle until t — the invariant the driver's batched
// bookkeeping relies on.
//
// Wakeups are cheap and duplicates are fine: a spurious wakeup only shortens
// a jump, never corrupts one. Registering *late* is the only unsound
// direction, and the property tests in the sim package check against it.
package eventq

// NoEvent is returned when no future wakeup is registered: the core cannot
// change state through the passage of time alone. It is the one no-event
// sentinel the simulator's packages share.
const NoEvent = int64(1) << 62

// Stats is a snapshot of the queue's activity counters.
type Stats struct {
	Wakeups   uint64 // Wake calls (registrations offered)
	Coalesced uint64 // wakeups absorbed without a heap push (past or duplicate)
	HeapMax   int    // high-water mark of heap occupancy
}

// Queue is the wakeup min-heap. The zero value is NOT ready to use; call
// New, which pre-sizes the backing array so steady-state operation never
// allocates. All methods are nil-safe on the receiver, so components can
// hold an optional *Queue and call it unconditionally.
type Queue struct {
	heap  []int64
	floor int64 // every cycle <= floor has been consumed; wakeups there coalesce
	max   int64 // latest pending wakeup: lets consumption clear an all-past heap in O(1)
	stats Stats
}

// New creates a queue with room for capacity pending wakeups before the
// backing array would have to grow.
func New(capacity int) *Queue {
	return &Queue{heap: make([]int64, 0, capacity)}
}

// Wake registers cycle t as a moment observable state may change. Wakeups
// at or before the consumed horizon, and duplicates of the current minimum,
// coalesce without touching the heap.
func (q *Queue) Wake(t int64) {
	if q == nil {
		return
	}
	q.stats.Wakeups++
	if t <= q.floor || (len(q.heap) > 0 && q.heap[0] == t) {
		q.stats.Coalesced++
		return
	}
	q.heap = append(q.heap, t)
	if len(q.heap) == 1 || t > q.max {
		q.max = t
	}
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.heap[p] <= q.heap[i] {
			break
		}
		q.heap[p], q.heap[i] = q.heap[i], q.heap[p]
		i = p
	}
	if len(q.heap) > q.stats.HeapMax {
		q.stats.HeapMax = len(q.heap)
	}
}

// NextAfter consumes every wakeup at or before now — cycles the driver is
// about to execute (or has executed) handle those by construction — and
// returns the earliest registered wakeup strictly after now, or NoEvent.
func (q *Queue) NextAfter(now int64) int64 {
	if q == nil {
		return NoEvent
	}
	if now > q.floor {
		q.floor = now
	}
	if q.max <= now {
		q.heap = q.heap[:0] // every pending wakeup is consumed
		return NoEvent
	}
	for len(q.heap) > 0 && q.heap[0] <= now {
		q.pop()
	}
	if len(q.heap) == 0 {
		return NoEvent
	}
	return q.heap[0]
}

// Horizon consumes wakeups strictly before now and returns the earliest
// registered wakeup at or after now, or NoEvent. Unlike NextAfter it keeps
// a wakeup at exactly now pending — FastForward uses it after its embedded
// cycle, where an event at the new current cycle must clamp the jump to
// zero skipped cycles rather than be discarded.
func (q *Queue) Horizon(now int64) int64 {
	if q == nil {
		return NoEvent
	}
	if now-1 > q.floor {
		q.floor = now - 1
	}
	if q.max < now {
		q.heap = q.heap[:0] // every pending wakeup is consumed
		return NoEvent
	}
	for len(q.heap) > 0 && q.heap[0] < now {
		q.pop()
	}
	if len(q.heap) == 0 {
		return NoEvent
	}
	return q.heap[0]
}

// Drain consumes wakeups strictly before now without reporting a horizon.
// Models call it once per executed cycle so the heap stays bounded by the
// in-flight event population even when no driver is polling (fast-forward
// disabled, tracing runs, benchmarks).
func (q *Queue) Drain(now int64) {
	if q == nil {
		return
	}
	if now-1 > q.floor {
		q.floor = now - 1
	}
	if q.max < now {
		q.heap = q.heap[:0] // every pending wakeup is consumed: the common
		return              // steady-state case, cleared without sift-downs
	}
	for len(q.heap) > 0 && q.heap[0] < now {
		q.pop()
	}
}

// pop removes the heap minimum.
func (q *Queue) pop() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q.heap[l] < q.heap[s] {
			s = l
		}
		if r < n && q.heap[r] < q.heap[s] {
			s = r
		}
		if s == i {
			return
		}
		q.heap[i], q.heap[s] = q.heap[s], q.heap[i]
		i = s
	}
}

// Len returns the number of pending wakeups.
func (q *Queue) Len() int {
	if q == nil {
		return 0
	}
	return len(q.heap)
}

// Stats returns a snapshot of the activity counters.
func (q *Queue) Stats() Stats {
	if q == nil {
		return Stats{}
	}
	return q.stats
}

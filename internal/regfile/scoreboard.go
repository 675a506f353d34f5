package regfile

// Producer-push wakeup: instead of every scheduler entry polling its source
// pregs' readiness each cycle, a consumer registers once (WaitOn) on each
// source whose producer has not issued, and the producer's SetReadyAt pushes
// the completion to all registered waiters. A slot whose pending count hits
// zero is raised on a dense candidate bitmap (one bit per scheduler slot),
// so the select loop walks bits.TrailingZeros64 over ready words instead of
// visiting every window entry.
//
// Consumer slots are identified by a small integer the core chooses (the
// ROB ring index in the OoO core). Squash safety comes from a per-slot
// generation: ResetSlot bumps the generation, so waiter nodes registered by
// a squashed (or committed-and-replaced) occupant are ignored when their
// producer finally fires. Nodes left behind on a squashed producer's list
// are dropped when its preg is re-allocated.

// wakeNode is one entry in a preg's waiter list.
type wakeNode struct {
	next int32  // next node in the list, -1 = end; free-list link when free
	slot int32  // waiting consumer slot
	gen  uint32 // slot generation at registration time
}

// wakeup holds the per-File push-wakeup state; nil when disabled.
type wakeup struct {
	words   []uint64   // candidate bitmap, one bit per consumer slot
	pending []uint8    // per slot: source producers not yet issued
	gen     []uint32   // per slot: squash generation
	head    []int32    // per preg: waiter list head, -1 = empty
	nodes   []wakeNode // node pool
	free    int32      // free-list head, -1 = empty
}

// EnableWakeup activates producer-push wakeup for `slots` consumer slots.
// The node pool is pre-sized so steady-state registration never allocates.
func (f *File) EnableWakeup(slots int) {
	w := &wakeup{
		words:   make([]uint64, (slots+63)/64),
		pending: make([]uint8, slots),
		gen:     make([]uint32, slots),
		head:    make([]int32, f.nInt+f.nFP),
		nodes:   make([]wakeNode, 0, 4*slots),
		free:    -1,
	}
	for i := range w.head {
		w.head[i] = -1
	}
	f.wu = w
}

// WakeWords exposes the candidate bitmap for the select loop. A set bit
// means every source producer has issued (readiness time is known); the
// selector still confirms the times against the current cycle.
func (f *File) WakeWords() []uint64 { return f.wu.words }

// ResetSlot claims slot for a new occupant (dispatch) or invalidates it
// (squash): pending waiter registrations from the previous occupant are
// generation-dead from here on.
func (f *File) ResetSlot(slot int) {
	w := f.wu
	w.gen[slot]++
	w.pending[slot] = 0
	w.words[slot>>6] &^= uint64(1) << uint(slot&63)
}

// WaitOn registers slot as a waiter on p when p's producer has not issued
// yet. Sources that already have a known readiness time need no
// registration — the selector checks the time directly.
func (f *File) WaitOn(p PReg, slot int) {
	if p == PRegNone || f.readyAt[p] != notReady {
		return
	}
	w := f.wu
	id := w.alloc()
	w.nodes[id] = wakeNode{next: w.head[p], slot: int32(slot), gen: w.gen[slot]}
	w.head[p] = id
	w.pending[slot]++
}

// ArmSlot raises slot on the candidate bitmap when it waits on no one —
// call it once after the dispatch-time WaitOn registrations.
func (f *File) ArmSlot(slot int) {
	w := f.wu
	if w.pending[slot] == 0 {
		w.words[slot>>6] |= uint64(1) << uint(slot&63)
	}
}

// fireWaiters drains p's waiter list when its value's readiness time
// becomes known, raising every still-live waiter whose pending count hits
// zero. Nodes from squashed occupants fail the generation check.
func (w *wakeup) fireWaiters(p PReg) {
	for id := w.head[p]; id >= 0; {
		n := &w.nodes[id]
		if n.gen == w.gen[n.slot] {
			if w.pending[n.slot]--; w.pending[n.slot] == 0 {
				w.words[n.slot>>6] |= uint64(1) << uint(n.slot&63)
			}
		}
		next := n.next
		n.next = w.free
		w.free = id
		id = next
	}
	w.head[p] = -1
}

// dropWaiters frees p's waiter list without firing: called when p is
// re-allocated, at which point no live consumer can reference the previous
// value (in-order commit released it only after every older consumer
// retired; squash invalidated the rest by generation).
func (w *wakeup) dropWaiters(p PReg) {
	for id := w.head[p]; id >= 0; {
		next := w.nodes[id].next
		w.nodes[id].next = w.free
		w.free = id
		id = next
	}
	w.head[p] = -1
}

func (w *wakeup) alloc() int32 {
	if w.free >= 0 {
		id := w.free
		w.free = w.nodes[id].next
		return id
	}
	w.nodes = append(w.nodes, wakeNode{})
	return int32(len(w.nodes) - 1)
}

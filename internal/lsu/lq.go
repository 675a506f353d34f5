package lsu

// LoadQueue is the conventional LQ of the OoO baseline (Table I: 16
// entries): a FIFO CAM of in-flight loads searched by resolving stores for
// memory-order violations. CASINO's whole point is not needing one. It
// keeps no activity counters: the cores bill its reads, writes and searches
// to the energy accountant.
type LoadQueue struct {
	entries []lqEntry
	head    int
	count   int
}

type lqEntry struct {
	seq    uint64
	pc     uint64
	addr   uint64
	size   uint8
	issued bool
}

// NewLoadQueue creates an LQ with n entries.
func NewLoadQueue(n int) *LoadQueue {
	if n < 1 {
		panic("lsu: load queue needs at least one entry")
	}
	return &LoadQueue{entries: make([]lqEntry, n)}
}

// Cap returns the capacity.
func (q *LoadQueue) Cap() int { return len(q.entries) }

// Len returns the occupancy.
func (q *LoadQueue) Len() int { return q.count }

// Full reports whether the LQ has no free entry.
func (q *LoadQueue) Full() bool { return q.count == len(q.entries) }

func (q *LoadQueue) at(i int) *lqEntry { return &q.entries[(q.head+i)%len(q.entries)] }

// Dispatch allocates an entry for the load with sequence seq.
func (q *LoadQueue) Dispatch(seq, pc uint64) bool {
	if q.Full() {
		return false
	}
	*q.at(q.count) = lqEntry{seq: seq, pc: pc}
	q.count++
	return true
}

// MarkIssued records the load's address when it issues.
func (q *LoadQueue) MarkIssued(seq uint64, addr uint64, size uint8) {
	for i := 0; i < q.count; i++ {
		if e := q.at(i); e.seq == seq {
			e.addr, e.size, e.issued = addr, size, true
			return
		}
	}
	panic("lsu: MarkIssued of unknown load")
}

// SearchViolation is the store-issue-time LQ search: it returns the oldest
// already-issued load younger than the store that overlaps the store's
// address.
func (q *LoadQueue) SearchViolation(storeSeq uint64, addr uint64, size uint8) (loadSeq uint64, loadPC uint64, found bool) {
	for i := 0; i < q.count; i++ {
		e := q.at(i)
		if e.seq <= storeSeq || !e.issued {
			continue
		}
		if e.addr < addr+uint64(size) && addr < e.addr+uint64(e.size) {
			return e.seq, e.pc, true
		}
	}
	return 0, 0, false
}

// Release removes the oldest entry, which must be seq (commit order).
func (q *LoadQueue) Release(seq uint64) {
	if q.count == 0 || q.at(0).seq != seq {
		panic("lsu: Release out of order")
	}
	q.head = (q.head + 1) % len(q.entries)
	q.count--
}

// SquashYoungerThan drops entries with seq >= bound from the tail.
func (q *LoadQueue) SquashYoungerThan(bound uint64) {
	for q.count > 0 {
		if q.at(q.count-1).seq < bound {
			break
		}
		q.count--
	}
}

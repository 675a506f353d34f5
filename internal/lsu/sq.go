// Package lsu implements the load/store machinery of the paper: the
// unified store queue / store buffer CAM with commit-time sentinels
// (on-commit value-check, §III-C4), the Outstanding Store Counter Array
// (OSCA) search filter, a store-set memory dependence predictor and a
// conventional load queue for the OoO baseline.
package lsu

import (
	"fmt"

	"casino/internal/eventq"
)

// NoSeq marks an absent sequence number.
const NoSeq = ^uint64(0)

// SQEntry is one store tracked by the unified SQ/SB.
type SQEntry struct {
	Seq          uint64
	PC           uint64
	Addr         uint64
	Size         uint8
	Resolved     bool   // address generated (store issued to AGU)
	ResolveCycle int64  // cycle the address became known
	DataReady    int64  // cycle store data is forwardable
	Committed    bool   // crossed the SQ→SB boundary (committed from ROB)
	RetireDone   int64  // cache update completion; 0 = retirement not started
	SentinelSeq  uint64 // youngest speculated load guarding this store (NoSeq = none)
}

func (e *SQEntry) overlaps(addr uint64, size uint8) bool {
	return e.Addr < addr+uint64(size) && addr < e.Addr+uint64(e.Size)
}

// StoreQueue is the unified SQ/SB of §III-C4: one CAM structure logically
// split by the commit boundary. Stores are dispatched at rename/S-IQ exit,
// resolved at issue, committed in order, and retire to the cache from the
// head once unguarded by sentinels.
type StoreQueue struct {
	entries []SQEntry
	head    int
	count   int
	wq      *eventq.Queue

	// Searches counts associative searches (issue + commit validations;
	// published as sqSearches). ViolationsSeen counts the commit-time
	// validations that found a memory-order violation. The cores bill
	// every other SQ access to the energy accountant themselves.
	Searches       uint64
	ViolationsSeen uint64
}

// NewStoreQueue creates a queue with n entries (Table I: 8 for CASINO/OoO,
// 4 for the InO baseline's plain SB).
func NewStoreQueue(n int) *StoreQueue {
	if n < 1 {
		panic("lsu: store queue needs at least one entry")
	}
	return &StoreQueue{entries: make([]SQEntry, n)}
}

// SetWakeQueue attaches the shared wakeup queue. The store queue registers
// every stored future cycle — data-ready times at resolve, cache-update
// completions at retirement start — as it is written.
func (q *StoreQueue) SetWakeQueue(wq *eventq.Queue) { q.wq = wq }

// Cap returns the capacity.
func (q *StoreQueue) Cap() int { return len(q.entries) }

// Len returns the number of occupied entries.
func (q *StoreQueue) Len() int { return q.count }

// Full reports whether no entry is free.
func (q *StoreQueue) Full() bool { return q.count == len(q.entries) }

func (q *StoreQueue) at(i int) *SQEntry {
	j := q.head + i
	if j >= len(q.entries) {
		j -= len(q.entries)
	}
	return &q.entries[j]
}

// Dispatch allocates a tail entry for the store with sequence seq.
// Returns false if the queue is full.
func (q *StoreQueue) Dispatch(seq, pc uint64) bool {
	if q.Full() {
		return false
	}
	e := q.at(q.count)
	*e = SQEntry{Seq: seq, PC: pc, SentinelSeq: NoSeq}
	q.count++
	return true
}

// find returns the entry for seq, or nil.
func (q *StoreQueue) find(seq uint64) *SQEntry {
	for i := 0; i < q.count; i++ {
		if e := q.at(i); e.Seq == seq {
			return e
		}
	}
	return nil
}

// Resolve records the store's address at issue time.
func (q *StoreQueue) Resolve(seq uint64, addr uint64, size uint8, now, dataReady int64) {
	e := q.find(seq)
	if e == nil {
		panic(fmt.Sprintf("lsu: Resolve of unknown store %d", seq))
	}
	e.Addr, e.Size = addr, size
	e.Resolved = true
	e.ResolveCycle = now
	e.DataReady = dataReady
	q.wq.Wake(dataReady)
}

// Commit marks the store as committed (it conceptually moves from the SQ
// part to the SB part).
func (q *StoreQueue) Commit(seq uint64) {
	e := q.find(seq)
	if e == nil {
		panic(fmt.Sprintf("lsu: Commit of unknown store %d", seq))
	}
	e.Committed = true
}

// Head returns the oldest entry, or nil if empty.
func (q *StoreQueue) Head() *SQEntry {
	if q.count == 0 {
		return nil
	}
	return q.at(0)
}

// HeadRetirable reports whether the head store may begin its cache update
// at cycle now: committed, resolved, data ready and not sentinel-guarded.
func (q *StoreQueue) HeadRetirable(now int64) bool {
	e := q.Head()
	if e == nil {
		return false
	}
	return e.Committed && e.Resolved && e.DataReady <= now &&
		e.SentinelSeq == NoSeq && e.RetireDone == 0
}

// StartRetire records the head's cache-update completion cycle.
func (q *StoreQueue) StartRetire(done int64) {
	e := q.Head()
	if e == nil || e.RetireDone != 0 {
		panic("lsu: StartRetire on empty queue or already-retiring head")
	}
	e.RetireDone = done
	q.wq.Wake(done)
}

// PopRetired removes the head if its cache update has completed by now,
// returning the entry (by value) and true.
func (q *StoreQueue) PopRetired(now int64) (SQEntry, bool) {
	e := q.Head()
	if e == nil || e.RetireDone == 0 || e.RetireDone > now {
		return SQEntry{}, false
	}
	out := *e
	q.head++
	if q.head == len(q.entries) {
		q.head = 0
	}
	q.count--
	return out, true
}

// SearchResult summarizes an issue-time SQ/SB search by a load.
type SearchResult struct {
	// Forward is the youngest older resolved store overlapping the load,
	// if any (forwarding source).
	Forward *SQEntry
	// OldestUnresolved is the oldest unresolved store that is older than
	// the load and younger than Forward (sentinel target per §III-C4).
	OldestUnresolved *SQEntry
}

// SearchForLoad performs the issue-time associative search on behalf of a
// load: it finds the youngest older matching resolved store and the oldest
// relevant unresolved store. sbOnly restricts the search to committed
// entries (loads issued from CASINO's in-order IQ: all prior stores have
// issued, so only the SB part matters).
func (q *StoreQueue) SearchForLoad(loadSeq uint64, addr uint64, size uint8, sbOnly bool) SearchResult {
	q.Searches++
	var res SearchResult
	for i := 0; i < q.count; i++ {
		e := q.at(i)
		if e.Seq >= loadSeq {
			break // entries are in program order; younger stores are irrelevant
		}
		if sbOnly && !e.Committed {
			continue
		}
		if e.Resolved {
			if e.overlaps(addr, size) {
				res.Forward = e // keep youngest (iteration is old→young)
				res.OldestUnresolved = nil
			}
		} else if res.OldestUnresolved == nil {
			res.OldestUnresolved = e
		}
	}
	return res
}

// SetSentinel places the load's sentinel on the store entry, replacing an
// older setter (the sentinel tracks the *youngest* dependent load).
func (q *StoreQueue) SetSentinel(store *SQEntry, loadSeq uint64) {
	if store.SentinelSeq == NoSeq || loadSeq > store.SentinelSeq {
		store.SentinelSeq = loadSeq
	}
}

// ClearSentinel removes loadSeq's sentinel from any store it guards
// (called when the load commits or is squashed).
func (q *StoreQueue) ClearSentinel(loadSeq uint64) {
	for i := 0; i < q.count; i++ {
		if e := q.at(i); e.SentinelSeq == loadSeq {
			e.SentinelSeq = NoSeq
		}
	}
}

// ValidateLoad performs the on-commit value-check for a speculated load:
// it re-searches the queue for an older overlapping store whose address
// resolved only after the load issued (the load read stale data). It
// returns true on a memory-order violation. This is the conservative
// address-based variant of the value check (no data values are simulated).
func (q *StoreQueue) ValidateLoad(loadSeq uint64, addr uint64, size uint8, loadIssue int64) bool {
	q.Searches++
	for i := 0; i < q.count; i++ {
		e := q.at(i)
		if e.Seq >= loadSeq {
			break
		}
		if e.Resolved && e.ResolveCycle > loadIssue && e.overlaps(addr, size) {
			q.ViolationsSeen++
			return true
		}
	}
	return false
}

// ResolvedOrGone reports whether the store with sequence seq has resolved
// its address or is no longer tracked (retired or squashed). Used by the
// store-set predictor's wait condition.
func (q *StoreQueue) ResolvedOrGone(seq uint64) bool {
	e := q.find(seq)
	return e == nil || e.Resolved
}

// OldestUnresolvedOlder returns the oldest store older than seq whose
// address is unresolved, or nil. It models the cheap Resolved-flag scan a
// load performs when the OSCA filtered its CAM search (§IV-2).
func (q *StoreQueue) OldestUnresolvedOlder(seq uint64) *SQEntry {
	for i := 0; i < q.count; i++ {
		e := q.at(i)
		if e.Seq >= seq {
			break
		}
		if !e.Resolved {
			return e
		}
	}
	return nil
}

// AnyUnresolvedOlder reports whether any store older than seq has an
// unresolved address (used by AGI-ordering and conservative schemes).
func (q *StoreQueue) AnyUnresolvedOlder(seq uint64) bool {
	for i := 0; i < q.count; i++ {
		e := q.at(i)
		if e.Seq >= seq {
			break
		}
		if !e.Resolved {
			return true
		}
	}
	return false
}

// SquashYoungerThan drops uncommitted stores with Seq >= seq from the tail
// (pipeline flush) and returns the dropped entries oldest-first (the OSCA
// recovery walks them).
func (q *StoreQueue) SquashYoungerThan(seq uint64) []SQEntry {
	var dropped []SQEntry
	for q.count > 0 {
		e := q.at(q.count - 1)
		if e.Seq < seq || e.Committed {
			break
		}
		dropped = append(dropped, *e)
		q.count--
	}
	// Reverse to oldest-first.
	for i, j := 0, len(dropped)-1; i < j; i, j = i+1, j-1 {
		dropped[i], dropped[j] = dropped[j], dropped[i]
	}
	return dropped
}

// ClearAllSentinels removes every sentinel (recovery step from §III-C5).
func (q *StoreQueue) ClearAllSentinels() {
	for i := 0; i < q.count; i++ {
		q.at(i).SentinelSeq = NoSeq
	}
}

// Entries returns a snapshot of occupied entries oldest-first (testing and
// introspection).
func (q *StoreQueue) Entries() []SQEntry {
	out := make([]SQEntry, q.count)
	for i := 0; i < q.count; i++ {
		out[i] = *q.at(i)
	}
	return out
}

package lsu

import (
	"testing"
	"testing/quick"
)

func TestStoreQueueLifecycle(t *testing.T) {
	q := NewStoreQueue(4)
	if q.Cap() != 4 || q.Len() != 0 || q.Full() {
		t.Fatal("fresh queue state wrong")
	}
	if !q.Dispatch(10, 0x100) || !q.Dispatch(20, 0x104) {
		t.Fatal("dispatch failed")
	}
	q.Resolve(10, 0x1000, 8, 5, 6)
	q.Commit(10)
	if !q.HeadRetirable(6) {
		t.Fatal("resolved+committed head should be retirable")
	}
	q.StartRetire(30)
	if _, ok := q.PopRetired(29); ok {
		t.Error("retired before completion")
	}
	e, ok := q.PopRetired(30)
	if !ok || e.Seq != 10 {
		t.Fatalf("PopRetired = %+v,%v", e, ok)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d", q.Len())
	}
	// Remaining store not committed: not retirable.
	q.Resolve(20, 0x2000, 8, 7, 8)
	if q.HeadRetirable(100) {
		t.Error("uncommitted store retirable")
	}
}

func TestStoreQueueFull(t *testing.T) {
	q := NewStoreQueue(2)
	q.Dispatch(1, 0)
	q.Dispatch(2, 0)
	if q.Dispatch(3, 0) {
		t.Error("dispatch into full queue succeeded")
	}
	if !q.Full() {
		t.Error("Full() false")
	}
}

func TestSearchForLoadForwarding(t *testing.T) {
	q := NewStoreQueue(8)
	q.Dispatch(10, 0x100)
	q.Dispatch(20, 0x104)
	q.Dispatch(30, 0x108)
	q.Resolve(10, 0x1000, 8, 1, 2)
	q.Resolve(30, 0x1000, 8, 3, 4)
	// Load at seq 40 overlapping 0x1000: youngest older resolved match is 30;
	// store 20 is unresolved but OLDER than the match → no sentinel needed.
	res := q.SearchForLoad(40, 0x1000, 8, false)
	if res.Forward == nil || res.Forward.Seq != 30 {
		t.Fatalf("Forward = %+v, want seq 30", res.Forward)
	}
	if res.OldestUnresolved != nil {
		t.Errorf("unresolved-older-than-match should be cleared, got %+v", res.OldestUnresolved)
	}
	// Load at seq 25: only store 10 is older+resolved+matching; store 20 is
	// older and unresolved and younger than the match → sentinel target.
	res = q.SearchForLoad(25, 0x1000, 8, false)
	if res.Forward == nil || res.Forward.Seq != 10 {
		t.Fatalf("Forward = %+v, want seq 10", res.Forward)
	}
	if res.OldestUnresolved == nil || res.OldestUnresolved.Seq != 20 {
		t.Fatalf("OldestUnresolved = %+v, want seq 20", res.OldestUnresolved)
	}
	// Non-overlapping load: no forward, unresolved 20 still reported.
	res = q.SearchForLoad(40, 0x9000, 8, false)
	if res.Forward != nil || res.OldestUnresolved == nil || res.OldestUnresolved.Seq != 20 {
		t.Errorf("disjoint search: %+v", res)
	}
	if q.Searches != 3 {
		t.Errorf("Searches = %d, want 3", q.Searches)
	}
}

func TestSearchSBOnly(t *testing.T) {
	q := NewStoreQueue(8)
	q.Dispatch(10, 0)
	q.Dispatch(20, 0)
	q.Resolve(10, 0x1000, 8, 1, 1)
	q.Resolve(20, 0x1000, 8, 1, 1)
	q.Commit(10) // only 10 is in the SB part
	res := q.SearchForLoad(30, 0x1000, 8, true)
	if res.Forward == nil || res.Forward.Seq != 10 {
		t.Errorf("sbOnly search forward = %+v, want seq 10", res.Forward)
	}
}

func TestSentinelGatesRetirement(t *testing.T) {
	q := NewStoreQueue(4)
	q.Dispatch(10, 0)
	q.Resolve(10, 0x1000, 8, 1, 1)
	q.Commit(10)
	st := q.Head()
	q.SetSentinel(st, 50)
	if q.HeadRetirable(100) {
		t.Error("sentinel-guarded store retirable")
	}
	// A younger load replaces the sentinel; an older one does not.
	q.SetSentinel(st, 60)
	if st.SentinelSeq != 60 {
		t.Errorf("sentinel = %d, want 60", st.SentinelSeq)
	}
	q.SetSentinel(st, 55)
	if st.SentinelSeq != 60 {
		t.Errorf("older setter replaced sentinel: %d", st.SentinelSeq)
	}
	q.ClearSentinel(50) // not the current setter: no effect
	if st.SentinelSeq != 60 {
		t.Error("ClearSentinel(50) cleared a younger sentinel")
	}
	q.ClearSentinel(60)
	if st.SentinelSeq != NoSeq {
		t.Error("sentinel not cleared")
	}
	if !q.HeadRetirable(100) {
		t.Error("store should be retirable after sentinel clear")
	}
}

func TestValidateLoadViolation(t *testing.T) {
	q := NewStoreQueue(4)
	q.Dispatch(10, 0)
	// Load (seq 20) issued at cycle 5; store 10 resolved at cycle 8 to the
	// same address → the load read stale data → violation.
	q.Resolve(10, 0x1000, 8, 8, 9)
	if !q.ValidateLoad(20, 0x1000, 8, 5) {
		t.Error("violation not detected")
	}
	// Load issued after the store resolved: no violation.
	if q.ValidateLoad(20, 0x1000, 8, 9) {
		t.Error("false violation")
	}
	// Different address: no violation.
	if q.ValidateLoad(20, 0x8000, 8, 5) {
		t.Error("address mismatch flagged")
	}
	if q.ViolationsSeen != 1 {
		t.Errorf("ViolationsSeen = %d", q.ViolationsSeen)
	}
}

func TestAnyUnresolvedOlder(t *testing.T) {
	q := NewStoreQueue(4)
	q.Dispatch(10, 0)
	q.Dispatch(20, 0)
	q.Resolve(10, 0x1000, 8, 1, 1)
	if q.AnyUnresolvedOlder(15) {
		t.Error("store 10 resolved; nothing older than 15 unresolved")
	}
	if !q.AnyUnresolvedOlder(25) {
		t.Error("store 20 unresolved and older than 25")
	}
}

func TestSquashYoungerThan(t *testing.T) {
	q := NewStoreQueue(8)
	q.Dispatch(10, 0)
	q.Dispatch(20, 0)
	q.Dispatch(30, 0)
	q.Resolve(20, 0x100, 4, 1, 1)
	q.Commit(10)
	dropped := q.SquashYoungerThan(20)
	if len(dropped) != 2 || dropped[0].Seq != 20 || dropped[1].Seq != 30 {
		t.Fatalf("dropped = %+v", dropped)
	}
	if q.Len() != 1 || q.Head().Seq != 10 {
		t.Errorf("queue after squash: len=%d head=%+v", q.Len(), q.Head())
	}
	// Committed stores are never squashed.
	dropped = q.SquashYoungerThan(0)
	if len(dropped) != 0 {
		t.Errorf("committed store squashed: %+v", dropped)
	}
}

func TestClearAllSentinels(t *testing.T) {
	q := NewStoreQueue(4)
	q.Dispatch(10, 0)
	q.Dispatch(20, 0)
	q.SetSentinel(q.Head(), 99)
	q.ClearAllSentinels()
	for _, e := range q.Entries() {
		if e.SentinelSeq != NoSeq {
			t.Errorf("sentinel survived: %+v", e)
		}
	}
}

func TestOSCABasic(t *testing.T) {
	o := NewOSCA(64, 8)
	if o.Size() != 64 {
		t.Fatal("size")
	}
	if o.LoadMaySearch(0x1000, 8) {
		t.Error("empty OSCA requires search")
	}
	if o.Skips != 1 {
		t.Errorf("Skips = %d", o.Skips)
	}
	o.Inc(0x1000, 8)
	if !o.LoadMaySearch(0x1000, 8) {
		t.Error("covered load skipped search")
	}
	if !o.LoadMaySearch(0x1004, 4) {
		t.Error("partially covered load skipped search")
	}
	o.Dec(0x1000, 8)
	if o.LoadMaySearch(0x1000, 8) {
		t.Error("decremented OSCA still forces search")
	}
}

func TestOSCAUnalignedAndWide(t *testing.T) {
	o := NewOSCA(64, 8)
	// Unaligned 4-byte access spanning two ranges.
	o.Inc(0x1002, 4)
	if !o.LoadMaySearch(0x1000, 1) || !o.LoadMaySearch(0x1004, 1) {
		t.Error("unaligned store did not cover both ranges")
	}
	o.Dec(0x1002, 4)
	if o.LoadMaySearch(0x1000, 8) {
		t.Error("counters not restored")
	}
}

func TestOSCAAliasingFalsePositive(t *testing.T) {
	o := NewOSCA(64, 8)
	// Two addresses 64*4 bytes apart map to the same counter.
	o.Inc(0x0, 4)
	if !o.LoadMaySearch(uint64(64*4), 4) {
		t.Error("aliasing should force a (redundant) search — false positives allowed")
	}
}

func TestOSCASaturation(t *testing.T) {
	o := NewOSCA(8, 2)
	o.Inc(0, 4)
	o.Inc(0, 4)
	if o.CanInc(0, 4) {
		t.Error("saturated counter accepted increment")
	}
	if o.CanInc(16, 4) {
		// different counter: must be allowed
	} else {
		t.Error("unrelated counter blocked")
	}
}

func TestOSCAPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewOSCA(63, 8) },
		func() { NewOSCA(64, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad OSCA config accepted")
				}
			}()
			f()
		}()
	}
}

// Property: after any sequence of Inc/Dec pairs, a load over a range with
// no outstanding store never reports "may search" unless aliased — here we
// use disjoint low addresses below the wrap limit so aliasing cannot occur.
func TestOSCAIncDecBalanced(t *testing.T) {
	f := func(addrs []uint8) bool {
		o := NewOSCA(64, 8)
		for _, a := range addrs {
			o.Inc(uint64(a), 4)
		}
		for _, a := range addrs {
			o.Dec(uint64(a), 4)
		}
		// All counters must be back at zero.
		for i := 0; i < o.Size(); i++ {
			if o.Counter(i) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreSetsLifecycle(t *testing.T) {
	s := NewStoreSets()
	if _, wait := s.LoadDependence(0x100); wait {
		t.Error("untrained predictor predicts dependence")
	}
	s.OnViolation(0x100, 0x200)
	s.StoreDispatched(0x200, 55)
	seq, wait := s.LoadDependence(0x100)
	if !wait || seq != 55 {
		t.Errorf("LoadDependence = %d,%v want 55,true", seq, wait)
	}
	s.StoreIssued(0x200, 55)
	if _, wait := s.LoadDependence(0x100); wait {
		t.Error("issued store still blocks load")
	}
	// A second dispatched store in the set re-arms the dependence.
	s.StoreDispatched(0x200, 77)
	if seq, wait := s.LoadDependence(0x100); !wait || seq != 77 {
		t.Errorf("re-armed dependence = %d,%v", seq, wait)
	}
	// StoreIssued with a stale seq must not clear a younger store.
	s.StoreDispatched(0x200, 99)
	s.StoreIssued(0x200, 77)
	if _, wait := s.LoadDependence(0x100); !wait {
		t.Error("stale StoreIssued cleared younger store")
	}
}

func TestStoreSetsMerge(t *testing.T) {
	s := NewStoreSets()
	s.OnViolation(0x100, 0x200)
	s.OnViolation(0x300, 0x400)
	s.OnViolation(0x100, 0x400) // merges the two colliding entries
	s.StoreDispatched(0x200, 10)
	if _, wait := s.LoadDependence(0x100); !wait {
		t.Error("merged entry does not share dependence with its set")
	}
	// Store 0x400 adopted load 0x100's set, so dispatching it re-arms too.
	s.StoreDispatched(0x400, 20)
	if seq, wait := s.LoadDependence(0x100); !wait || seq != 20 {
		t.Errorf("merged store not tracked: %d,%v", seq, wait)
	}
	s.Reset()
	if _, wait := s.LoadDependence(0x100); wait {
		t.Error("reset predictor still predicts")
	}
}

func TestLoadQueue(t *testing.T) {
	q := NewLoadQueue(2)
	if !q.Dispatch(10, 0x100) || !q.Dispatch(20, 0x104) {
		t.Fatal("dispatch failed")
	}
	if q.Dispatch(30, 0x108) {
		t.Error("over-capacity dispatch")
	}
	q.MarkIssued(20, 0x1000, 8)
	// Store at seq 15 resolving to the same address: load 20 violated.
	seq, pc, found := q.SearchViolation(15, 0x1000, 8)
	if !found || seq != 20 || pc != 0x104 {
		t.Errorf("violation search = %d,%#x,%v", seq, pc, found)
	}
	// Store younger than the load: no violation.
	if _, _, found := q.SearchViolation(25, 0x1000, 8); found {
		t.Error("younger store flagged")
	}
	// Unissued load can't violate.
	if _, _, found := q.SearchViolation(5, 0x2000, 8); found {
		t.Error("unissued load flagged")
	}
	q.Release(10)
	if q.Len() != 1 {
		t.Errorf("Len = %d", q.Len())
	}
	q.SquashYoungerThan(0)
	if q.Len() != 0 {
		t.Error("squash all failed")
	}
}

func TestLoadQueueReleasePanicsOutOfOrder(t *testing.T) {
	q := NewLoadQueue(2)
	q.Dispatch(10, 0)
	q.Dispatch(20, 0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order release accepted")
		}
	}()
	q.Release(20)
}

package regfile

import (
	"testing"

	"casino/internal/isa"
)

func TestNewIdentityMapping(t *testing.T) {
	f := New(32, 14, 3)
	if f.NumPhys() != 46 {
		t.Fatalf("NumPhys = %d", f.NumPhys())
	}
	if f.Lookup(isa.IntReg(5)) != 5 {
		t.Error("int identity mapping broken")
	}
	if f.Lookup(isa.FPReg(2)) != PReg(34) {
		t.Errorf("fp mapping = %d, want 34", f.Lookup(isa.FPReg(2)))
	}
	if f.Lookup(isa.RegNone) != PRegNone {
		t.Error("RegNone lookup")
	}
	if f.FreeCount(false) != 32-isa.NumIntRegs {
		t.Errorf("free INT = %d", f.FreeCount(false))
	}
	if f.FreeCount(true) != 14-isa.NumFPRegs {
		t.Errorf("free FP = %d", f.FreeCount(true))
	}
}

func TestNewPanicsOnTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("undersized PRF accepted")
		}
	}()
	New(8, 14, 3)
}

func TestAllocateReleaseRoundTrip(t *testing.T) {
	f := New(18, 9, 3)
	a := isa.IntReg(3)
	old := f.Lookup(a)
	newP, oldP, ok := f.Allocate(a)
	if !ok || oldP != old || newP == oldP {
		t.Fatalf("Allocate = %d,%d,%v", newP, oldP, ok)
	}
	if f.Lookup(a) != newP {
		t.Error("RAT not updated")
	}
	if f.IsReady(newP, 0) {
		t.Error("fresh allocation already ready")
	}
	// Exhaust the INT pool (2 free at start, one used).
	_, _, ok = f.Allocate(isa.IntReg(4))
	if !ok {
		t.Fatal("second allocate failed")
	}
	if _, _, ok := f.Allocate(isa.IntReg(5)); ok {
		t.Error("allocation from empty pool succeeded")
	}
	if f.CanAllocate(isa.IntReg(5)) {
		t.Error("CanAllocate on empty pool")
	}
	f.Release(oldP)
	if !f.CanAllocate(isa.IntReg(5)) {
		t.Error("release did not refill pool")
	}
	if f.InUse(false) != 17 {
		t.Errorf("InUse = %d", f.InUse(false))
	}
}

func TestFPPoolSeparate(t *testing.T) {
	f := New(32, 9, 3)
	if !f.CanAllocate(isa.FPReg(0)) {
		t.Fatal("one FP register should be free")
	}
	p, _, ok := f.Allocate(isa.FPReg(0))
	if !ok || !f.IsFP(p) {
		t.Fatalf("FP allocate = %d (fp=%v)", p, f.IsFP(p))
	}
	if f.CanAllocate(isa.FPReg(1)) {
		t.Error("FP pool should now be empty")
	}
	if !f.CanAllocate(isa.IntReg(0)) {
		t.Error("INT pool drained by FP allocation")
	}
}

func TestReadiness(t *testing.T) {
	f := New(32, 14, 3)
	p := PReg(20)
	f.SetReadyAt(p, 100)
	if f.IsReady(p, 99) || !f.IsReady(p, 100) {
		t.Error("readiness threshold wrong")
	}
	f.MarkNotReady(p)
	if f.IsReady(p, 1<<40) {
		t.Error("MarkNotReady ineffective")
	}
	if f.ReadyAt(PRegNone) != 0 {
		t.Error("PRegNone should always be ready")
	}
}

func TestProducerCount(t *testing.T) {
	f := New(32, 14, 3)
	p := PReg(5)
	for i := 0; i < 3; i++ {
		if !f.CanAddProducer(p) {
			t.Fatalf("producer %d refused", i)
		}
		f.AddProducer(p)
	}
	if f.CanAddProducer(p) {
		t.Error("4th producer allowed with 2-bit count")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overflow not caught")
			}
		}()
		f.AddProducer(p)
	}()
	f.RemoveProducer(p)
	if f.Producers(p) != 2 {
		t.Errorf("Producers = %d", f.Producers(p))
	}
	f.RemoveProducer(p)
	f.RemoveProducer(p)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("underflow not caught")
			}
		}()
		f.RemoveProducer(p)
	}()
}

func TestRecoveryLogUnwind(t *testing.T) {
	f := New(20, 10, 3)
	var log RecoveryLog
	a1, a2 := isa.IntReg(1), isa.IntReg(2)
	n1, o1, _ := f.Allocate(a1)
	log.Push(RecoveryEntry{Seq: 10, Arch: a1, Old: o1, New: n1})
	n2, o2, _ := f.Allocate(a2)
	log.Push(RecoveryEntry{Seq: 20, Arch: a2, Old: o2, New: n2})
	freeBefore := f.FreeCount(false)

	// Unwind everything from seq 15 up: only seq 20 entry.
	undone := log.Unwind(f, 15)
	if undone != 1 {
		t.Fatalf("undone = %d", undone)
	}
	if f.Lookup(a2) != o2 {
		t.Error("RAT not restored for a2")
	}
	if f.Lookup(a1) != n1 {
		t.Error("a1 mapping should survive")
	}
	if f.FreeCount(false) != freeBefore+1 {
		t.Error("freed register not returned")
	}
	if log.Len() != 1 {
		t.Errorf("log len = %d", log.Len())
	}
}

func TestRecoveryLogCommit(t *testing.T) {
	var log RecoveryLog
	log.Push(RecoveryEntry{Seq: 10})
	log.Push(RecoveryEntry{Seq: 20})
	log.Push(RecoveryEntry{Seq: 30})
	log.Commit(20)
	if log.Len() != 1 {
		t.Fatalf("len after Commit = %d", log.Len())
	}
	f := New(32, 14, 3)
	if n := log.Unwind(f, 0); n != 1 {
		t.Errorf("unwound %d", n)
	}
}

func TestActivityCounters(t *testing.T) {
	f := New(32, 14, 3)
	f.Lookup(isa.IntReg(1))
	f.Allocate(isa.IntReg(1))
	f.ReadyAt(PReg(3))
	f.SetReadyAt(PReg(3), 5)
	if f.Allocs != 1 {
		t.Errorf("Allocs = %d, want 1", f.Allocs)
	}
}

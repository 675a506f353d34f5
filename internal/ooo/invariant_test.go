package ooo

import (
	"testing"

	"casino/internal/energy"
	"casino/internal/mem"
	"casino/internal/ptrace"
	"casino/internal/workload"
)

// Physical-register conservation through violation flushes: after a full
// drain every allocated register is back on the free lists.
func TestPRFConservationThroughFlushes(t *testing.T) {
	for _, nolq := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.NoLQ = nolq
		p, _ := workload.ByName("h264ref")
		tr := workload.Generate(p, 15000, 1)
		c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
		freeInt0, freeFP0 := c.rf.FreeCount(false), c.rf.FreeCount(true)
		for i := 0; i < 100_000_000 && !c.Done(); i++ {
			c.Cycle()
		}
		if !c.Done() {
			t.Fatal("livelock")
		}
		if c.Violations == 0 {
			t.Fatalf("nolq=%v: test needs violations to stress recovery", nolq)
		}
		if c.rf.FreeCount(false) != freeInt0 || c.rf.FreeCount(true) != freeFP0 {
			t.Errorf("nolq=%v: register leak: INT %d->%d FP %d->%d", nolq,
				freeInt0, c.rf.FreeCount(false), freeFP0, c.rf.FreeCount(true))
		}
	}
}

// Commit order through the event bus's commit events, through
// LQ-triggered mid-pipeline flushes.
func TestCommitOrderThroughFlushes(t *testing.T) {
	p, _ := workload.ByName("h264ref")
	tr := workload.Generate(p, 15000, 1)
	c := New(DefaultConfig(), tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
	next := uint64(0)
	c.SetPipeTrace(ptrace.NewRecorder(ptrace.SinkFunc(func(e ptrace.Event) {
		if e.Kind != ptrace.KindCommit {
			return
		}
		if e.Seq != next {
			t.Fatalf("commit order: got %d want %d", e.Seq, next)
		}
		next++
	}), ptrace.Window{}))
	for i := 0; i < 100_000_000 && !c.Done(); i++ {
		c.Cycle()
	}
	if !c.Done() || next != uint64(tr.Len()) {
		t.Fatalf("drained=%v committed=%d of %d", c.Done(), next, tr.Len())
	}
}

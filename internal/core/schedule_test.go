package core

import (
	"testing"

	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/workload"
)

// Scheduling-policy edge cases of the cascaded windows.

func TestWindowBypassPreAllocatesInOrder(t *testing.T) {
	// Head is a long-latency consumer chain that cannot pass (tiny IQ);
	// a ready op inside the window must issue past it, and the stuck ops
	// must still commit in program order.
	cfg := DefaultConfig()
	cfg.IQSize = 1 // force the stuck-head case
	ops := []isa.MicroOp{
		{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8},
		alu(isa.IntReg(2), isa.IntReg(1)), // will clog the 1-entry IQ
		alu(isa.IntReg(3), isa.IntReg(1)), // stuck at S-IQ head
		alu(isa.IntReg(4), isa.RegNone),   // ready, inside the window: bypass-issues
		alu(isa.IntReg(5), isa.IntReg(4)),
	}
	c := mkCore(cfg, ops)
	run(t, c)
	if c.Committed() != 5 {
		t.Errorf("committed %d", c.Committed())
	}
	if c.IssuedSIQNonMem == 0 {
		t.Error("no speculative issues despite ready op in window")
	}
}

func TestSIQPriorityAblationRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SIQPriority = true
	ipc, c := runProfile(t, cfg, "libquantum", 15000)
	if ipc <= 0 || c.Committed() == 0 {
		t.Fatal("SIQ-priority run failed")
	}
}

func TestPassOnResourceStallAblationRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PassOnResourceStall = true
	ipc, _ := runProfile(t, cfg, "milc", 15000)
	if ipc <= 0 {
		t.Fatal("pass-on-stall run failed")
	}
	// Footnote 1: waiting at the head should be at least roughly as good.
	base, _ := runProfile(t, DefaultConfig(), "milc", 15000)
	if ipc > base*1.25 {
		t.Errorf("pass-on-stall unexpectedly dominant: %.3f vs %.3f", ipc, base)
	}
}

func TestWS1SO1DegeneratesTowardInO(t *testing.T) {
	// With a 1-wide window the S-IQ can only examine its head — behaviour
	// approaches (but may slightly exceed) plain stall-on-use in-order.
	cfg := DefaultConfig()
	cfg.WS, cfg.SO = 1, 1
	narrow, _ := runProfile(t, cfg, "libquantum", 15000)
	wide, _ := runProfile(t, DefaultConfig(), "libquantum", 15000)
	if narrow > wide*1.02 {
		t.Errorf("WS=1 (%.3f) outperformed WS=2 (%.3f)", narrow, wide)
	}
}

func TestCascadeMidQueueIssues(t *testing.T) {
	// In a 3-wide cascade, instructions must be able to issue from the
	// intermediate S-IQ (not only the first S-IQ and final IQ).
	cfg := WideConfig(3)
	p, _ := workload.ByName("milc")
	tr := workload.Generate(p, 20000, 1)
	c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
	for i := 0; i < 100_000_000 && !c.Done(); i++ {
		c.Cycle()
	}
	if !c.Done() {
		t.Fatal("3-wide cascade livelocked")
	}
	if c.IssuedSIQMem+c.IssuedSIQNonMem == 0 {
		t.Error("cascade never issued speculatively")
	}
	if c.Committed() != uint64(tr.Len()) {
		t.Errorf("committed %d of %d", c.Committed(), tr.Len())
	}
}

func TestProducerDistanceRecorded(t *testing.T) {
	_, c := runProfile(t, DefaultConfig(), "libquantum", 15000)
	if c.ProducerDist.Count() == 0 {
		t.Error("producer distance histogram never populated")
	}
	if m := c.ProducerDist.Mean(); m < 0 || m > 12 {
		t.Errorf("mean producer distance %.2f outside the 12-entry IQ", m)
	}
}

func TestStallCountersPopulated(t *testing.T) {
	_, c := runProfile(t, DefaultConfig(), "mcf", 15000)
	total := c.StallIQFull + c.StallPReg + c.StallProdCount + c.StallROBSQ + c.StallFU
	if total == 0 {
		t.Error("no head stalls diagnosed on a memory-bound workload")
	}
}

// TestPreAllocatedHeadRegisterStall builds a first S-IQ head that younger
// ops issue past (so it is pre-allocated) and that becomes ready only once
// those ops hold every free register. Its wait for a register is a
// stall.preg cycle, as it is for a head that is not pre-allocated.
func TestPreAllocatedHeadRegisterStall(t *testing.T) {
	// A missing load and ten independent ops that cannot commit before it
	// hold 11 of the 16 free integer registers.
	ops := []isa.MicroOp{{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8}}
	for i := 0; i < 10; i++ {
		ops = append(ops, alu(isa.IntReg(6+i), isa.RegNone))
	}
	// Three consumers of the load pass to the IQ and saturate r5's
	// ProducerCount, so the head below cannot pass.
	for i := 0; i < 3; i++ {
		ops = append(ops, alu(isa.IntReg(5), isa.IntReg(1)))
	}
	// The head waits 12 cycles for a divide while younger independent ops
	// issue past it and take the remaining registers.
	const head = 15
	ops = append(ops,
		isa.MicroOp{Class: isa.IntDiv, Dst: isa.IntReg(2), Src1: isa.RegNone, Src2: isa.RegNone},
		alu(isa.IntReg(5), isa.IntReg(2)))
	for i := 0; i < 8; i++ {
		ops = append(ops, alu(isa.IntReg(6+i), isa.RegNone))
	}
	c := mkCore(DefaultConfig(), ops)
	waits := uint64(0)
	for i := 0; i < 100_000 && !c.Done(); i++ {
		if q := &c.queues[0]; q.len() > 0 && q.at(0).op.Seq == head {
			e := q.at(0)
			if ready, _, _ := c.siqReady(0, e, c.Clock); ready && e.preAlloc && !c.rf.CanAllocate(e.op.Dst) {
				waits++
			}
		}
		c.Cycle()
	}
	if !c.Done() {
		t.Fatal("livelock")
	}
	if waits < 100 {
		t.Fatalf("the pre-allocated head waited %d cycles for a register; the trace no longer builds the case", waits)
	}
	// waits is sampled before each cycle. Nearly every wait is a stall.preg
	// cycle; the few FU stalls are cycles in which a commit freed a
	// register but the IQ took both issue slots.
	if c.StallPReg < waits*9/10 || c.StallFU > waits/10 {
		t.Errorf("stall.preg = %d, stall.fu = %d over %d register waits; want nearly all counted as stall.preg",
			c.StallPReg, c.StallFU, waits)
	}
}

func TestIssueCountersConsistent(t *testing.T) {
	_, c := runProfile(t, DefaultConfig(), "gcc", 15000)
	issues := c.IssuedSIQMem + c.IssuedSIQNonMem + c.IssuedIQMem + c.IssuedIQNonMem
	// Every committed op issued exactly once unless flushed and re-issued.
	if issues < c.Committed() {
		t.Errorf("issues (%d) < commits (%d)", issues, c.Committed())
	}
	if c.Violations == 0 && issues != c.Committed() {
		t.Errorf("no flushes but issues (%d) != commits (%d)", issues, c.Committed())
	}
}

func TestDataBufferNeverExceedsCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataBufSize = 2
	p, _ := workload.ByName("h264ref")
	tr := workload.Generate(p, 15000, 1)
	c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
	for i := 0; i < 100_000_000 && !c.Done(); i++ {
		c.Cycle()
		if c.dbUsed < 0 || c.dbUsed > cfg.DataBufSize {
			t.Fatalf("data buffer occupancy %d outside [0,%d] at cycle %d", c.dbUsed, cfg.DataBufSize, c.Now())
		}
	}
	if !c.Done() {
		t.Fatal("livelock")
	}
}

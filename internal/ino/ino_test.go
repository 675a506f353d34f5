package ino

import (
	"testing"

	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/trace"
	"casino/internal/workload"
)

// mkCore builds a core over a hand-written op list with a pre-warmed L1I.
func mkCore(ops []isa.MicroOp) *Core {
	for i := range ops {
		ops[i].Seq = uint64(i)
		if ops[i].PC == 0 {
			ops[i].PC = 0x1000 + uint64(i)*4
		}
	}
	tr := &trace.Trace{Name: "micro", Ops: ops}
	hier := mem.NewHierarchy(mem.DefaultConfig())
	for i := range ops {
		hier.Fetch(ops[i].PC, 0)
	}
	return New(DefaultConfig(), tr, hier, energy.NewAccountant())
}

// run drives the core to completion, failing the test on livelock.
func run(t *testing.T, c *Core) {
	t.Helper()
	for i := 0; i < 2_000_000 && !c.Done(); i++ {
		c.Cycle()
	}
	if !c.Done() {
		t.Fatalf("core livelocked: committed=%d now=%d", c.Committed(), c.Now())
	}
}

func alu(dst, src isa.Reg) isa.MicroOp {
	return isa.MicroOp{Class: isa.IntALU, Dst: dst, Src1: src, Src2: isa.RegNone}
}

func TestAllOpsCommit(t *testing.T) {
	ops := []isa.MicroOp{
		alu(isa.IntReg(1), isa.RegNone),
		alu(isa.IntReg(2), isa.IntReg(1)),
		alu(isa.IntReg(3), isa.IntReg(2)),
		{Class: isa.Load, Dst: isa.IntReg(4), Src1: isa.IntReg(3), Src2: isa.RegNone, Addr: 0x100, Size: 8},
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(4), Src2: isa.IntReg(1), Addr: 0x200, Size: 8},
		alu(isa.IntReg(5), isa.RegNone),
	}
	c := mkCore(ops)
	run(t, c)
	if c.Committed() != 6 {
		t.Errorf("committed %d, want 6", c.Committed())
	}
}

func TestStallOnUseNotStallOnMiss(t *testing.T) {
	// A: load(miss); then N independent ALUs; the load's consumer comes last.
	// B: load(miss); consumer immediately; then N independent ALUs.
	// Stall-on-use means A completes much faster than B.
	mkOps := func(consumerFirst bool) []isa.MicroOp {
		ops := []isa.MicroOp{
			{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8},
		}
		indep := make([]isa.MicroOp, 40)
		for i := range indep {
			indep[i] = alu(isa.IntReg(2+i%6), isa.RegNone)
		}
		consumer := alu(isa.IntReg(10), isa.IntReg(1))
		if consumerFirst {
			ops = append(ops, consumer)
			ops = append(ops, indep...)
		} else {
			ops = append(ops, indep...)
			ops = append(ops, consumer)
		}
		return ops
	}
	a := mkCore(mkOps(false))
	run(t, a)
	b := mkCore(mkOps(true))
	run(t, b)
	if a.Now() >= b.Now() {
		t.Errorf("stall-on-use broken: consumer-last took %d cycles, consumer-first %d", a.Now(), b.Now())
	}
	if b.IssueStallsSrc == 0 {
		t.Error("consumer at head should have stalled on its source")
	}
}

func TestInOrderIssueStrict(t *testing.T) {
	// Independent op behind a stalled consumer must NOT issue early:
	// total time is governed by the miss in both orderings.
	ops := []isa.MicroOp{
		{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8},
		alu(isa.IntReg(2), isa.IntReg(1)), // dependent: stalls at head
		alu(isa.IntReg(3), isa.RegNone),   // independent but behind
	}
	c := mkCore(ops)
	run(t, c)
	// The independent op cannot hide the miss: runtime ~ miss latency.
	if c.Now() < 50 {
		t.Errorf("finished in %d cycles; independent op must not bypass a stalled head", c.Now())
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// Store then load of the same address: the load must forward, not miss.
	ops := []isa.MicroOp{
		alu(isa.IntReg(1), isa.RegNone),
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, Addr: 1 << 29, Size: 8},
		{Class: isa.Load, Dst: isa.IntReg(2), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 29, Size: 8},
	}
	c := mkCore(ops)
	run(t, c)
	if c.LoadsForwarded != 1 {
		t.Errorf("LoadsForwarded = %d, want 1", c.LoadsForwarded)
	}
	// A load to a different (cold) address must be slower: it misses while
	// the forwarded one bypasses the cache entirely.
	ops2 := []isa.MicroOp{
		alu(isa.IntReg(1), isa.RegNone),
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, Addr: 1 << 29, Size: 8},
		{Class: isa.Load, Dst: isa.IntReg(2), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 28, Size: 8},
		alu(isa.IntReg(3), isa.IntReg(2)), // consumer makes the miss visible
	}
	c2 := mkCore(ops2)
	run(t, c2)
	if c2.LoadsForwarded != 0 {
		t.Fatalf("disjoint load forwarded")
	}
	if c2.Now() <= c.Now() {
		t.Errorf("missing load (%d cyc) not slower than forwarded load (%d cyc)", c2.Now(), c.Now())
	}
}

func TestSCBWindowBounds(t *testing.T) {
	// More than SCBSize long-latency ops cannot all be in flight at once.
	ops := make([]isa.MicroOp, 8)
	for i := range ops {
		ops[i] = isa.MicroOp{Class: isa.FPDiv, Dst: isa.FPReg(i % 8), Src1: isa.RegNone, Src2: isa.RegNone}
	}
	c := mkCore(ops)
	run(t, c)
	// 8 divides, 2 FP units, unpipelined lat 12 → at least 4 rounds of 12,
	// further limited by the 4-entry SCB and in-order WB.
	if c.Now() < 40 {
		t.Errorf("8 divides finished in %d cycles — SCB/FU limits not modelled", c.Now())
	}
}

func TestBranchResolutionUnblocksFetch(t *testing.T) {
	// A mispredicting branch must not deadlock the machine.
	ops := []isa.MicroOp{
		alu(isa.IntReg(1), isa.RegNone),
		{Class: isa.Branch, Dst: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, Taken: true, Target: 0x2000, PC: 0x1004},
		{Class: isa.IntALU, Dst: isa.IntReg(2), Src1: isa.RegNone, Src2: isa.RegNone, PC: 0x2000},
		{Class: isa.IntALU, Dst: isa.IntReg(3), Src1: isa.RegNone, Src2: isa.RegNone, PC: 0x2004},
	}
	c := mkCore(ops)
	run(t, c)
	if c.Committed() != 4 {
		t.Errorf("committed %d", c.Committed())
	}
	if c.Mispredicts() != 1 {
		t.Errorf("mispredicts = %d, want 1 (cold BTB)", c.Mispredicts())
	}
}

func runProfile(t *testing.T, name string, n int) (float64, *Core) {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(p, n, 1)
	c := New(DefaultConfig(), tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
	run(t, c)
	return float64(c.Committed()) / float64(c.Now()), c
}

func TestProfileIPCRanges(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	for _, name := range []string{"mcf", "hmmer", "libquantum", "gobmk"} {
		ipc, c := runProfile(t, name, 30000)
		if ipc <= 0.03 || ipc > 2.0 {
			t.Errorf("%s: InO IPC %.3f outside plausible range", name, ipc)
		}
		if c.Committed() < 30000 {
			t.Errorf("%s: committed %d < requested", name, c.Committed())
		}
	}
}

func TestComputeBeatsPointerChase(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	chase, _ := runProfile(t, "mcf", 30000)
	compute, _ := runProfile(t, "hmmer", 30000)
	if compute <= chase {
		t.Errorf("hmmer IPC %.3f should exceed mcf IPC %.3f on InO", compute, chase)
	}
}

func TestEnergyAccountingPopulated(t *testing.T) {
	_, c := runProfile(t, "gcc", 10000)
	a := c.Acct
	if a.DynamicEnergy() <= 0 || a.StaticEnergy() <= 0 {
		t.Error("energy not accumulated")
	}
	if a.CountByName("IQ", energy.Write) == 0 || a.CountByName("SB", energy.Search) == 0 {
		t.Error("structure activity not counted")
	}
	if a.Cycles == 0 || a.IntOps == 0 {
		t.Error("cycle/FU counters empty")
	}
}

func TestDeterminism(t *testing.T) {
	ipc1, c1 := runProfile(t, "astar", 15000)
	ipc2, c2 := runProfile(t, "astar", 15000)
	if ipc1 != ipc2 || c1.Now() != c2.Now() {
		t.Errorf("nondeterministic: %v/%v vs %v/%v", ipc1, c1.Now(), ipc2, c2.Now())
	}
}

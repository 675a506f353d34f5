package ooo

import (
	"testing"

	"casino/internal/energy"
	"casino/internal/ino"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/trace"
	"casino/internal/workload"
)

func mkTrace(ops []isa.MicroOp) (*trace.Trace, *mem.Hierarchy) {
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
	return tr, hier
}

func mkCore(cfg Config, ops []isa.MicroOp) *Core {
	tr, hier := mkTrace(ops)
	return New(cfg, tr, hier, energy.NewAccountant())
}

func run(t *testing.T, c *Core) {
	t.Helper()
	for i := 0; i < 5_000_000 && !c.Done(); i++ {
		c.Cycle()
	}
	if !c.Done() {
		t.Fatalf("core livelocked: committed=%d now=%d n=%d", c.Committed(), c.Now(), c.n)
	}
}

func alu(dst, src isa.Reg) isa.MicroOp {
	return isa.MicroOp{Class: isa.IntALU, Dst: dst, Src1: src, Src2: isa.RegNone}
}

func TestAllOpsCommitOnce(t *testing.T) {
	ops := []isa.MicroOp{
		alu(isa.IntReg(1), isa.RegNone),
		{Class: isa.Load, Dst: isa.IntReg(2), Src1: isa.IntReg(1), Src2: isa.RegNone, Addr: 0x100, Size: 8},
		alu(isa.IntReg(3), isa.IntReg(2)),
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(3), Src2: isa.IntReg(1), Addr: 0x200, Size: 8},
		alu(isa.IntReg(4), isa.RegNone),
	}
	c := mkCore(DefaultConfig(), ops)
	run(t, c)
	if c.Committed() != 5 {
		t.Errorf("committed %d, want 5", c.Committed())
	}
}

func TestOutOfOrderIssueHidesMiss(t *testing.T) {
	// Pairs of (missing load, dependent consumer): InO's stall-on-use
	// serializes the misses (each consumer blocks the next load at the IQ
	// head); OoO overlaps them (MLP).
	var ops []isa.MicroOp
	for i := 0; i < 6; i++ {
		addr := uint64(1)<<30 + uint64(i)*4096 // distinct lines and banks
		ops = append(ops,
			isa.MicroOp{Class: isa.Load, Dst: isa.IntReg(1 + i%4), Src1: isa.RegNone, Src2: isa.RegNone, Addr: addr, Size: 8},
			alu(isa.IntReg(8+i%4), isa.IntReg(1+i%4)),
		)
	}
	oooCycles := func() int64 {
		c := mkCore(DefaultConfig(), ops)
		run(t, c)
		return c.Now()
	}()
	// Same trace on the InO baseline.
	tr, hier := mkTrace(append([]isa.MicroOp(nil), ops...))
	ic := ino.New(ino.DefaultConfig(), tr, hier, energy.NewAccountant())
	for i := 0; i < 5_000_000 && !ic.Done(); i++ {
		ic.Cycle()
	}
	if !ic.Done() {
		t.Fatal("InO livelocked")
	}
	if oooCycles >= ic.Now() {
		t.Errorf("OoO (%d cyc) not faster than InO (%d cyc) on miss-hiding trace", oooCycles, ic.Now())
	}
}

// violationOps builds a trace where a load speculatively bypasses an older
// store to the same address whose data (and thus issue) is delayed by a
// cache miss.
func violationOps() []isa.MicroOp {
	ops := []isa.MicroOp{
		{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8}, // slow
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, Addr: 0x500, Size: 8},  // waits for r1
		{Class: isa.Load, Dst: isa.IntReg(2), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 0x500, Size: 8},   // bypasses the store
		alu(isa.IntReg(3), isa.IntReg(2)),
	}
	return ops
}

func TestMemoryViolationFlushLQ(t *testing.T) {
	c := mkCore(DefaultConfig(), violationOps())
	run(t, c)
	if c.Violations == 0 {
		t.Fatal("no violation detected (LQ search)")
	}
	if c.Committed() != 4 {
		t.Errorf("committed %d, want 4 (no double commit after flush)", c.Committed())
	}
}

func TestMemoryViolationFlushNoLQ(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoLQ = true
	c := mkCore(cfg, violationOps())
	run(t, c)
	if c.Violations == 0 {
		t.Fatal("no violation detected (on-commit value check)")
	}
	if c.Committed() != 4 {
		t.Errorf("committed %d, want 4", c.Committed())
	}
}

func TestStoreSetLearning(t *testing.T) {
	// Repeat the violating pattern many times at the same PCs: store sets
	// must keep the violation count far below the pattern count.
	var ops []isa.MicroOp
	for i := 0; i < 50; i++ {
		base := violationOps()
		for j := range base {
			base[j].PC = 0x1000 + uint64(j)*4 // same static PCs every iteration
			base[j].Addr += uint64(i) * 4096  // different data addresses
			if base[j].Class == isa.Load && j == 0 {
				base[j].Addr = 1<<30 + uint64(i)*64*1024*1024 // keep it missing? (just vary)
			}
		}
		// Make the older store and younger load alias within an iteration.
		base[1].Addr = 0x500 + uint64(i)*4096
		base[2].Addr = base[1].Addr
		ops = append(ops, base...)
	}
	c := mkCore(DefaultConfig(), ops)
	run(t, c)
	if c.Violations == 0 {
		t.Fatal("expected at least one initial violation")
	}
	if c.Violations > 10 {
		t.Errorf("store sets not learning: %d violations in 50 iterations", c.Violations)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	ops := []isa.MicroOp{
		alu(isa.IntReg(1), isa.RegNone),
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(1), Src2: isa.RegNone, Addr: 1 << 29, Size: 8},
		{Class: isa.Load, Dst: isa.IntReg(2), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 29, Size: 8},
	}
	c := mkCore(DefaultConfig(), ops)
	run(t, c)
	if c.LoadsForwarded != 1 {
		t.Errorf("LoadsForwarded = %d, want 1", c.LoadsForwarded)
	}
	if c.Violations != 0 {
		t.Errorf("forwarded load flagged as violation")
	}
}

func TestPRFBoundsRespected(t *testing.T) {
	// A long stream of register-writing ops: free-list pressure must stall
	// dispatch, not crash or deadlock.
	var ops []isa.MicroOp
	for i := 0; i < 500; i++ {
		ops = append(ops, alu(isa.IntReg(i%14+1), isa.RegNone))
	}
	c := mkCore(DefaultConfig(), ops)
	run(t, c)
	if c.Committed() != 500 {
		t.Errorf("committed %d", c.Committed())
	}
}

func runProfile(t *testing.T, cfg Config, name string, n int) (float64, *Core) {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Generate(p, n, 1)
	c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
	for i := 0; i < 50_000_000 && !c.Done(); i++ {
		c.Cycle()
	}
	if !c.Done() {
		t.Fatalf("%s livelocked: committed=%d", name, c.Committed())
	}
	return float64(c.Committed()) / float64(c.Now()), c
}

func TestOoOBeatsInOAcrossProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	for _, name := range []string{"libquantum", "mcf", "cactusADM", "hmmer"} {
		oooIPC, _ := runProfile(t, DefaultConfig(), name, 30000)
		p, _ := workload.ByName(name)
		tr := workload.Generate(p, 30000, 1)
		ic := ino.New(ino.DefaultConfig(), tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
		for i := 0; i < 50_000_000 && !ic.Done(); i++ {
			ic.Cycle()
		}
		inoIPC := float64(ic.Committed()) / float64(ic.Now())
		if oooIPC < inoIPC {
			t.Errorf("%s: OoO IPC %.3f < InO IPC %.3f", name, oooIPC, inoIPC)
		}
	}
}

func TestNoLQVariantRunsAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	cfg := DefaultConfig()
	cfg.NoLQ = true
	ipc, c := runProfile(t, cfg, "h264ref", 30000)
	if ipc <= 0 {
		t.Error("NoLQ IPC not positive")
	}
	if c.Acct.CountByName("LQ", energy.Search) != 0 {
		t.Error("NoLQ config still counts LQ activity")
	}
	if c.Acct.CountByName("SQ", energy.Search) == 0 {
		t.Error("NoLQ config should search the SQ")
	}
}

func TestWideConfigScaling(t *testing.T) {
	w4 := WideConfig(4)
	if w4.Width != 4 || w4.ROBSize != 128 || w4.IQSize != 64 || w4.IntPRF != 192 {
		t.Errorf("4-wide scaling wrong: %+v", w4)
	}
	w3 := WideConfig(3)
	if w3.ROBSize != 64 {
		t.Errorf("3-wide scaling wrong: %+v", w3)
	}
	w2 := WideConfig(2)
	if w2 != DefaultConfig() {
		t.Errorf("2-wide should equal default")
	}
}

func TestDeterminism(t *testing.T) {
	a, ca := runProfile(t, DefaultConfig(), "gcc", 15000)
	b, cb := runProfile(t, DefaultConfig(), "gcc", 15000)
	if a != b || ca.Now() != cb.Now() || ca.Violations != cb.Violations {
		t.Error("nondeterministic OoO run")
	}
}

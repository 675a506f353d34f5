package core

import (
	"strings"
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
		t.Fatalf("core livelocked: committed=%d now=%d rob=%d", c.Committed(), c.Now(), c.rob.len())
	}
}

func alu(dst, src isa.Reg) isa.MicroOp {
	return isa.MicroOp{Class: isa.IntALU, Dst: dst, Src1: src, Src2: isa.RegNone}
}

func TestAllOpsCommit(t *testing.T) {
	ops := []isa.MicroOp{
		alu(isa.IntReg(1), isa.RegNone),
		{Class: isa.Load, Dst: isa.IntReg(2), Src1: isa.IntReg(1), Src2: isa.RegNone, Addr: 0x100, Size: 8},
		alu(isa.IntReg(3), isa.IntReg(2)),
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(3), Src2: isa.IntReg(1), Addr: 0x200, Size: 8},
		alu(isa.IntReg(4), isa.RegNone),
		{Class: isa.FPAdd, Dst: isa.FPReg(0), Src1: isa.FPReg(1), Src2: isa.FPReg(2)},
	}
	c := mkCore(DefaultConfig(), ops)
	run(t, c)
	if c.Committed() != 6 {
		t.Errorf("committed %d, want 6", c.Committed())
	}
}

func TestSpeculativeIssueHidesMiss(t *testing.T) {
	// Miss + dependent consumer + independent pairs: CASINO must overlap
	// the misses (near-OoO), beating the stall-on-use InO baseline.
	var ops []isa.MicroOp
	for i := 0; i < 6; i++ {
		addr := uint64(1)<<30 + uint64(i)*4096
		ops = append(ops,
			isa.MicroOp{Class: isa.Load, Dst: isa.IntReg(1 + i%4), Src1: isa.RegNone, Src2: isa.RegNone, Addr: addr, Size: 8},
			alu(isa.IntReg(8+i%4), isa.IntReg(1+i%4)),
		)
	}
	c := mkCore(DefaultConfig(), ops)
	run(t, c)
	tr, hier := mkTrace(append([]isa.MicroOp(nil), ops...))
	ic := ino.New(ino.DefaultConfig(), tr, hier, energy.NewAccountant())
	for i := 0; i < 5_000_000 && !ic.Done(); i++ {
		ic.Cycle()
	}
	if !ic.Done() {
		t.Fatal("InO livelocked")
	}
	if c.Now() >= ic.Now() {
		t.Errorf("CASINO (%d cyc) not faster than InO (%d cyc) on MLP trace", c.Now(), ic.Now())
	}
	if c.IssuedSIQMem == 0 {
		t.Error("no loads issued speculatively from the S-IQ")
	}
	if c.PassedToIQ == 0 {
		t.Error("no instructions passed to the IQ")
	}
}

func TestMemoryViolationOnCommitValueCheck(t *testing.T) {
	ops := []isa.MicroOp{
		{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8}, // slow
		alu(isa.IntReg(2), isa.IntReg(1)),
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(2), Src2: isa.RegNone, Addr: 0x500, Size: 8}, // late data
		{Class: isa.Load, Dst: isa.IntReg(3), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 0x500, Size: 8},  // speculates past it
		alu(isa.IntReg(4), isa.IntReg(3)),
	}
	c := mkCore(DefaultConfig(), ops)
	run(t, c)
	if c.Violations == 0 {
		t.Fatal("expected an on-commit memory-order violation")
	}
	if c.Committed() != 5 {
		t.Errorf("committed %d, want 5 (each op exactly once)", c.Committed())
	}
	if c.sq.ViolationsSeen == 0 {
		t.Error("SQ validation did not record the violation")
	}
}

func TestAGIOrderingNeverViolates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Disambig = DisambigAGIOrder
	ops := []isa.MicroOp{
		{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8},
		alu(isa.IntReg(2), isa.IntReg(1)),
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(2), Src2: isa.RegNone, Addr: 0x500, Size: 8},
		{Class: isa.Load, Dst: isa.IntReg(3), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 0x500, Size: 8},
	}
	c := mkCore(cfg, ops)
	run(t, c)
	if c.Violations != 0 {
		t.Errorf("AGI ordering violated %d times", c.Violations)
	}
	if c.IssuedSIQMem != 0 {
		t.Errorf("%d memory ops issued speculatively under AGI ordering", c.IssuedSIQMem)
	}
	if c.Committed() != 4 {
		t.Errorf("committed %d", c.Committed())
	}
}

func TestFullLQBaselineViolatesAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Disambig = DisambigFullLQ
	cfg.OSCASize = 0
	ops := []isa.MicroOp{
		{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8},
		alu(isa.IntReg(2), isa.IntReg(1)),
		{Class: isa.Store, Dst: isa.RegNone, Src1: isa.IntReg(2), Src2: isa.RegNone, Addr: 0x500, Size: 8},
		{Class: isa.Load, Dst: isa.IntReg(3), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 0x500, Size: 8},
		alu(isa.IntReg(4), isa.IntReg(3)),
		alu(isa.IntReg(5), isa.RegNone),
	}
	c := mkCore(cfg, ops)
	run(t, c)
	if c.Violations == 0 {
		t.Fatal("FullLQ baseline missed the violation (store-issue LQ search)")
	}
	if c.Committed() != 6 {
		t.Errorf("committed %d, want 6", c.Committed())
	}
	// The mid-pipeline flush must not corrupt rename state: rerun a long
	// random-ish workload to shake out recovery bugs.
	ipc, cc := runProfile(t, cfg, "h264ref", 20000)
	if ipc <= 0 {
		t.Error("FullLQ profile run failed")
	}
	if cc.Violations == 0 {
		t.Error("aliasing workload produced no FullLQ violations")
	}
}

func TestConditionalRenamingAllocatesLess(t *testing.T) {
	// A pointer-chase-like trace where most ops wait (get passed).
	var ops []isa.MicroOp
	for i := 0; i < 100; i++ {
		ops = append(ops,
			isa.MicroOp{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.RegNone,
				Addr: uint64(1)<<30 + uint64(i)*64, Size: 8},
			alu(isa.IntReg(2), isa.IntReg(1)),
			alu(isa.IntReg(3), isa.IntReg(2)),
		)
	}
	cond := mkCore(DefaultConfig(), append([]isa.MicroOp(nil), ops...))
	run(t, cond)
	convCfg := DefaultConfig()
	convCfg.Renaming = RenameConventional
	conv := mkCore(convCfg, append([]isa.MicroOp(nil), ops...))
	run(t, conv)
	if cond.RegAllocs() >= conv.RegAllocs() {
		t.Errorf("conditional renaming allocated %d regs, conventional %d — should be fewer",
			cond.RegAllocs(), conv.RegAllocs())
	}
	if cond.Committed() != conv.Committed() {
		t.Errorf("commit counts differ: %d vs %d", cond.Committed(), conv.Committed())
	}
}

func TestProducerCountSaturationNoDeadlock(t *testing.T) {
	// Many consecutive writers of the same register behind a slow load:
	// ProducerCount (max 3) must stall passes without deadlocking.
	ops := []isa.MicroOp{
		{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8},
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, alu(isa.IntReg(2), isa.IntReg(1))) // all write r2, all depend on the load
	}
	c := mkCore(DefaultConfig(), ops)
	run(t, c)
	if c.Committed() != 11 {
		t.Errorf("committed %d, want 11", c.Committed())
	}
}

func TestDataBufferLimitNoDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataBufSize = 1
	var ops []isa.MicroOp
	// A serial chain: everything passes to the IQ and needs buffer slots.
	ops = append(ops, isa.MicroOp{Class: isa.Load, Dst: isa.IntReg(1), Src1: isa.RegNone, Src2: isa.RegNone, Addr: 1 << 30, Size: 8})
	for i := 0; i < 20; i++ {
		ops = append(ops, alu(isa.IntReg(1+i%3), isa.IntReg(1+(i+2)%3)))
	}
	c := mkCore(cfg, ops)
	run(t, c)
	if c.Committed() != 21 {
		t.Errorf("committed %d, want 21", c.Committed())
	}
}

func TestOSCAFiltersSearches(t *testing.T) {
	// Loads only (no stores in flight): with the OSCA every search is
	// filtered; without it (DisambigNoLQ) every load searches.
	var ops []isa.MicroOp
	for i := 0; i < 50; i++ {
		ops = append(ops, isa.MicroOp{Class: isa.Load, Dst: isa.IntReg(1 + i%4), Src1: isa.RegNone, Src2: isa.RegNone,
			Addr: 0x8000 + uint64(i)*8, Size: 8})
	}
	withOSCA := mkCore(DefaultConfig(), append([]isa.MicroOp(nil), ops...))
	run(t, withOSCA)
	cfg := DefaultConfig()
	cfg.Disambig = DisambigNoLQ
	cfg.OSCASize = 0
	without := mkCore(cfg, append([]isa.MicroOp(nil), ops...))
	run(t, without)
	if withOSCA.sq.Searches != 0 {
		t.Errorf("OSCA failed to filter: %d searches with no stores in flight", withOSCA.sq.Searches)
	}
	if without.sq.Searches < 50 {
		t.Errorf("NoLQ variant searched only %d times for 50 loads", without.sq.Searches)
	}
	if withOSCA.OSCA().Skips == 0 {
		t.Error("OSCA skip counter empty")
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
		t.Error("forwarded load raised a violation")
	}
}

func TestWideCascadedConfig(t *testing.T) {
	for _, w := range []int{3, 4} {
		cfg := WideConfig(w)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		p, _ := workload.ByName("gcc")
		tr := workload.Generate(p, 10000, 1)
		c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
		for i := 0; i < 20_000_000 && !c.Done(); i++ {
			c.Cycle()
		}
		if !c.Done() {
			t.Fatalf("width %d livelocked", w)
		}
		if c.Committed() != uint64(tr.Len()) {
			t.Errorf("width %d: committed %d of %d", w, c.Committed(), tr.Len())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.WS = 1
	bad.SO = 2
	if err := bad.Validate(); err == nil {
		t.Error("WS < SO accepted")
	}
	bad = DefaultConfig()
	bad.MidSIQs = 1
	bad.MidSIQSize = 8
	if err := bad.Validate(); err == nil {
		t.Error("cascade with conditional renaming accepted")
	}
	bad = DefaultConfig()
	bad.OSCASize = 63
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two OSCA accepted")
	}
	bad = DefaultConfig()
	bad.SQSize = 256
	if err := bad.Validate(); err == nil {
		t.Error("SQ beyond the OSCA counters' range accepted")
	}
	bad.Disambig = DisambigNoLQ // no OSCA, no counter limit
	if err := bad.Validate(); err != nil {
		t.Errorf("256-entry SQ without an OSCA rejected: %v", err)
	}
	bad = DefaultConfig()
	bad.ROBSize = 3
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "ROB size 3") || strings.Contains(err.Error(), "non-positive") {
		t.Errorf("ROB size 3: error %v, want one naming the ROB minimum", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
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
	for i := 0; i < 100_000_000 && !c.Done(); i++ {
		c.Cycle()
	}
	if !c.Done() {
		t.Fatalf("%s livelocked: committed=%d of %d", name, c.Committed(), tr.Len())
	}
	if c.Committed() != uint64(tr.Len()) {
		t.Fatalf("%s: committed %d of %d", name, c.Committed(), tr.Len())
	}
	return float64(c.Committed()) / float64(c.Now()), c
}

func TestAllProfilesComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	for _, name := range []string{"mcf", "libquantum", "h264ref", "hmmer", "cactusADM", "lbm", "gobmk"} {
		ipc, c := runProfile(t, DefaultConfig(), name, 20000)
		if ipc <= 0.03 || ipc > 2.0 {
			t.Errorf("%s: CASINO IPC %.3f outside plausible range", name, ipc)
		}
		total := c.IssuedSIQMem + c.IssuedSIQNonMem + c.IssuedIQMem + c.IssuedIQNonMem
		if total < c.Committed() {
			t.Errorf("%s: issue counters (%d) < committed (%d)", name, total, c.Committed())
		}
	}
}

func TestCASINOBeatsInO(t *testing.T) {
	if testing.Short() {
		t.Skip("workload runs")
	}
	for _, name := range []string{"libquantum", "cactusADM", "milc"} {
		cIPC, _ := runProfile(t, DefaultConfig(), name, 20000)
		p, _ := workload.ByName(name)
		tr := workload.Generate(p, 20000, 1)
		ic := ino.New(ino.DefaultConfig(), tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
		for i := 0; i < 100_000_000 && !ic.Done(); i++ {
			ic.Cycle()
		}
		iIPC := float64(ic.Committed()) / float64(ic.Now())
		if cIPC <= iIPC {
			t.Errorf("%s: CASINO IPC %.3f <= InO IPC %.3f", name, cIPC, iIPC)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, ca := runProfile(t, DefaultConfig(), "soplex", 15000)
	b, cb := runProfile(t, DefaultConfig(), "soplex", 15000)
	if a != b || ca.Now() != cb.Now() || ca.Violations != cb.Violations {
		t.Error("nondeterministic CASINO run")
	}
}

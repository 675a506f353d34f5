package sim

import (
	"strings"
	"testing"

	"casino/internal/core"
	"casino/internal/ino"
	"casino/internal/ooo"
	"casino/internal/pipeline"
	"casino/internal/slice"
	"casino/internal/specino"
)

func small() Options {
	return Options{
		Apps:   []string{"libquantum", "gcc", "h264ref"},
		Ops:    8000,
		Warmup: 2000,
		Seed:   1,
	}
}

func TestRunBasic(t *testing.T) {
	r, err := Run(Spec{Model: ModelInO, Workload: "gcc", Ops: 5000, Warmup: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 5000 {
		t.Errorf("instructions = %d", r.Instructions)
	}
	if r.IPC <= 0 || r.Cycles == 0 {
		t.Errorf("IPC=%v cycles=%d", r.IPC, r.Cycles)
	}
	if r.TotalPJ <= 0 || r.AreaMM2 <= 0 || r.EnergyPerInst <= 0 || r.PerfPerEnergy <= 0 {
		t.Errorf("energy fields: %+v", r)
	}
}

func TestRunAllModels(t *testing.T) {
	for _, m := range Models() {
		r, err := Run(Spec{Model: m, Workload: "gcc", Ops: 4000, Warmup: 1000, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %v", m, r.IPC)
		}
		if r.Extra == nil {
			t.Errorf("%s: no extra stats", m)
		}
	}
}

func TestRunUnknownModel(t *testing.T) {
	if _, err := Run(Spec{Model: "vliw", Workload: "gcc"}); err == nil {
		t.Error("unknown model accepted")
	}
}

// A configuration its model cannot be built on is an error from Run:
// before Validate, these panicked in a constructor or ran to the cycle cap.
func TestRunRejectsInvalidConfigs(t *testing.T) {
	mk := func(model string, edit func(*Spec)) Spec {
		s := Spec{Model: model, Workload: "gcc", Ops: 2000, Warmup: 500, Seed: 1}
		edit(&s)
		return s
	}
	for name, s := range map[string]Spec{
		"ooo SQSize 0":  mk(ModelOoO, func(s *Spec) { c := ooo.DefaultConfig(); c.SQSize = 0; s.OoOCfg = &c }),
		"ooo IntPRF 10": mk(ModelOoO, func(s *Spec) { c := ooo.DefaultConfig(); c.IntPRF = 10; s.OoOCfg = &c }),
		"ino Width 0":   mk(ModelInO, func(s *Spec) { c := ino.DefaultConfig(); c.Width = 0; s.InOCfg = &c }),
		"ino IQSize 0":  mk(ModelInO, func(s *Spec) { c := ino.DefaultConfig(); c.IQSize = 0; s.InOCfg = &c }),
		"lsc AQSize 0": mk(ModelLSC, func(s *Spec) {
			c := slice.DefaultConfig(slice.LSC)
			c.AQSize = 0
			s.SliceCfg = &c
		}),
		"lsc WindowSize 0": mk(ModelLSC, func(s *Spec) {
			c := slice.DefaultConfig(slice.LSC)
			c.WindowSize = 0
			s.SliceCfg = &c
		}),
		"casino IntPRF 16": mk(ModelCASINO, func(s *Spec) { c := core.DefaultConfig(); c.IntPRF = 16; s.CasinoCfg = &c }),
		"specino FrontDepth 0": mk(ModelSpecInO, func(s *Spec) {
			c := specino.DefaultConfig(2, 1)
			c.FrontDepth = 0
			s.SpecInOCfg = &c
		}),
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: Run panicked: %v", name, p)
				}
			}()
			_, err := Run(s)
			if err == nil || strings.Contains(err.Error(), "cycle cap") {
				t.Errorf("%s: Run error = %v, want a validation error", name, err)
			}
		}()
	}
}

// TestModelConfigRejectsOversizedStructures: a structure above
// pipeline.MaxEntries is a validation error from Run, not a
// multi-gigabyte allocation in a constructor. It asks modelConfig, the
// validation Run performs before building anything, so no core is built
// even where a bound is missing.
func TestModelConfigRejectsOversizedStructures(t *testing.T) {
	const huge = 1_000_000_000
	mk := func(model string, edit func(*Spec)) Spec {
		s := Spec{Model: model, Workload: "gcc"}
		edit(&s)
		return s
	}
	for name, s := range map[string]Spec{
		"ooo ROBSize": mk(ModelOoO, func(s *Spec) { c := ooo.DefaultConfig(); c.ROBSize = huge; s.OoOCfg = &c }),
		"ooo IntPRF":  mk(ModelOoO, func(s *Spec) { c := ooo.DefaultConfig(); c.IntPRF = huge; s.OoOCfg = &c }),
		"ino IQSize":  mk(ModelInO, func(s *Spec) { c := ino.DefaultConfig(); c.IQSize = huge; s.InOCfg = &c }),
		"ino SCBSize": mk(ModelInO, func(s *Spec) { c := ino.DefaultConfig(); c.SCBSize = huge; s.InOCfg = &c }),
		"casino IQSize": mk(ModelCASINO, func(s *Spec) {
			c := core.DefaultConfig()
			c.IQSize = huge
			s.CasinoCfg = &c
		}),
		"casino OSCASize": mk(ModelCASINO, func(s *Spec) {
			c := core.DefaultConfig()
			c.OSCASize = 1 << 40
			s.CasinoCfg = &c
		}),
		"casino ROBSize one over": mk(ModelCASINO, func(s *Spec) {
			c := core.DefaultConfig()
			c.ROBSize = pipeline.MaxEntries + 1
			s.CasinoCfg = &c
		}),
		"lsc SBSize": mk(ModelLSC, func(s *Spec) {
			c := slice.DefaultConfig(slice.LSC)
			c.SBSize = huge
			s.SliceCfg = &c
		}),
		"lsc ISTSize": mk(ModelLSC, func(s *Spec) {
			c := slice.DefaultConfig(slice.LSC)
			c.ISTSize = huge
			s.SliceCfg = &c
		}),
		"freeway YQSize": mk(ModelFreeway, func(s *Spec) {
			c := slice.DefaultConfig(slice.Freeway)
			c.YQSize = huge
			s.SliceCfg = &c
		}),
	} {
		if _, err := s.modelConfig(); err == nil {
			t.Errorf("%s: accepted, want a validation error", name)
		}
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(Spec{Model: ModelInO, Workload: "doom"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	s := Spec{Model: ModelCASINO, Workload: "milc", Ops: 5000, Warmup: 1000, Seed: 7}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.Cycles != b.Cycles || a.TotalPJ != b.TotalPJ {
		t.Error("nondeterministic Run")
	}
}

func TestTable1(t *testing.T) {
	s, metrics, err := RunFigure("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"S-IQ", "TAGE", "DDR4", "32-entry ROB"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Table1 missing %q", frag)
		}
	}
	if len(metrics) != 0 {
		t.Errorf("Table1 is prose but reported metrics %v", metrics)
	}
}

// runFig runs one figure for a shape test and returns its text and its
// metrics, which carry their run-manifest names.
func runFig(t *testing.T, id string, o Options) (string, map[string]float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-model suite")
	}
	text, m, err := RunFigure(id, o)
	if err != nil {
		t.Fatal(err)
	}
	return text, m
}

func TestFig6SmallShape(t *testing.T) {
	text, m := runFig(t, "fig6", small())
	for _, row := range append(small().Apps, "geomean") {
		if !strings.Contains(text, "\n"+row+" ") {
			t.Errorf("table has no %s row:\n%s", row, text)
		}
	}
	if m["fig6.norm_ipc_geomean.InO"] != 1.0 {
		t.Errorf("InO norm = %v", m["fig6.norm_ipc_geomean.InO"])
	}
	// Paper shape: InO < LSC <= Freeway < CASINO < OoO-ish ordering on an
	// MLP-rich mini-suite (allow small reorderings except the endpoints).
	if g := m["fig6.norm_ipc_geomean.CASINO"]; g <= 1.0 {
		t.Errorf("CASINO %v <= InO", g)
	}
	if g := m["fig6.norm_ipc_geomean.OoO"]; g <= 1.0 {
		t.Errorf("OoO %v <= InO", g)
	}
	if g := m["fig6.norm_ipc_geomean.LSC"]; g < 0.95 {
		t.Errorf("LSC %v implausibly below InO", g)
	}
}

func TestFig2SmallShape(t *testing.T) {
	_, m := runFig(t, "fig2", small())
	all, nonMem := m["fig2.norm_ipc_geomean.SpecInO[2,1]_All"], m["fig2.norm_ipc_geomean.SpecInO[2,1]_Non-mem"]
	if all < nonMem {
		t.Errorf("All-types %v < Non-mem %v", all, nonMem)
	}
	if ooo := m["fig2.norm_ipc_geomean.OoO"]; ooo < all*0.9 {
		t.Errorf("OoO %v below SpecInO All %v", ooo, all)
	}
}

func TestFig7SmallShape(t *testing.T) {
	_, m := runFig(t, "fig7", small())
	if cond, conv := m["fig7.allocs_per_kc.ConD[32,14]"], m["fig7.allocs_per_kc.ConV[32,14]"]; cond >= conv {
		t.Errorf("conditional renaming allocates more: %v vs %v", cond, conv)
	}
	// ConD must be at least roughly on par with ConV at equal PRF size
	// (the full 25-app suite shows a clear win; this 3-app subset allows
	// small noise).
	if g := m["fig7.norm_ipc.ConD[32,14]"]; g < 0.97 {
		t.Errorf("ConD materially slower than ConV with equal PRF: %v", g)
	}
	total := m["fig7.issue_frac.spec_mem"] + m["fig7.issue_frac.spec_non_mem"] +
		m["fig7.issue_frac.mem"] + m["fig7.issue_frac.non_mem"]
	if total < 0.95 || total > 1.05 {
		t.Errorf("issue breakdown does not sum to 1: %v", total)
	}
}

func TestFig8SmallShape(t *testing.T) {
	_, m := runFig(t, "fig8", small())
	// Every CASINO scheme eliminates the LQ entirely.
	for _, scheme := range []string{"AGI-Ordering", "NoLQ", "NoLQ+OSCA"} {
		if m["fig8.lq_searches_per_ki."+scheme] != 0 || m["fig8.lq_reads_per_ki."+scheme] != 0 {
			t.Errorf("%s still has LQ activity", scheme)
		}
	}
	if m["fig8.lq_searches_per_ki.FullyOoO-LQ"] == 0 {
		t.Error("baseline LQ never searched")
	}
	// The OSCA must reduce SQ searches vs plain NoLQ.
	if osca, nolq := m["fig8.sq_searches_per_ki.NoLQ+OSCA"], m["fig8.sq_searches_per_ki.NoLQ"]; osca >= nolq {
		t.Errorf("OSCA did not reduce SQ searches: %v vs %v", osca, nolq)
	}
	// AGI ordering costs performance vs the speculative schemes.
	if agi, osca := m["fig8.norm_ipc.AGI-Ordering"], m["fig8.norm_ipc.NoLQ+OSCA"]; agi > osca {
		t.Errorf("AGI ordering unexpectedly fastest: %v vs %v", agi, osca)
	}
}

func TestFig9SmallShape(t *testing.T) {
	_, m := runFig(t, "fig9", small())
	if casino, ooo := m["fig9.norm_area.CASINO"], m["fig9.norm_area.OoO"]; casino <= 1.0 || casino >= ooo {
		t.Errorf("area ordering wrong: CASINO %v OoO %v", casino, ooo)
	}
	if casino, ooo := m["fig9.norm_energy.CASINO"], m["fig9.norm_energy.OoO"]; casino >= ooo {
		t.Errorf("CASINO energy %v >= OoO %v", casino, ooo)
	}
	if nolq, ooo := m["fig9.norm_energy.OoO+NoLQ"], m["fig9.norm_energy.OoO"]; nolq >= ooo {
		t.Errorf("NoLQ did not reduce OoO energy: %v vs %v", nolq, ooo)
	}
}

func TestFig10bSmallShape(t *testing.T) {
	_, m := runFig(t, "fig10b", Options{Apps: []string{"libquantum", "milc"}, Ops: 6000, Warmup: 1500, Seed: 1})
	if g := m["fig10b.norm_ipc.[2,1]"]; g < 1.0 {
		t.Errorf("[2,1] below [1,1]: %v", g)
	}
}

func TestFig11SmallShape(t *testing.T) {
	_, m := runFig(t, "fig11", Options{Apps: []string{"libquantum", "hmmer"}, Ops: 6000, Warmup: 1500, Seed: 1})
	casino2, casino4, ooo4 := m["fig11.norm_ipc.CASINO.2w"], m["fig11.norm_ipc.CASINO.4w"], m["fig11.norm_ipc.OoO.4w"]
	if casino4 <= casino2 {
		t.Errorf("4-wide CASINO (%v) not faster than 2-wide (%v)", casino4, casino2)
	}
	if ooo4 < casino4*0.8 {
		t.Errorf("width scaling shape off: OoO4 %v CASINO4 %v", ooo4, casino4)
	}
}

func TestSectionStats(t *testing.T) {
	_, m := runFig(t, "stats", Options{Apps: []string{"libquantum"}, Ops: 6000, Warmup: 1500, Seed: 1})
	if f := m["stats.casinoSIQFrac"]; f <= 0.05 || f >= 1 {
		t.Errorf("S-IQ fraction %v implausible", f)
	}
	if f := m["stats.specInOOoOFrac"]; f <= 0.05 || f >= 1 {
		t.Errorf("SpecInO OoO fraction %v implausible", f)
	}
}

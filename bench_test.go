package casino

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (run with `go test -bench=. -benchmem`). Each
// benchmark reports the figure's headline numbers as custom metrics, so
// the paper-vs-measured comparison in EXPERIMENTS.md can be re-derived
// from a single bench run. The ablation benchmarks cover the design
// choices DESIGN.md calls out.

import (
	"fmt"
	"math"
	"testing"

	"casino/internal/core"
	"casino/internal/sim"
)

func defaultMem() MemConfig { return DefaultMemConfig() }

// benchOpts scales each figure to bench-friendly runtimes while keeping
// the shapes stable (the full-scale numbers in EXPERIMENTS.md use
// cmd/casino-bench with larger -ops).
func benchOpts() sim.Options {
	return sim.Options{Ops: 30000, Warmup: 8000, Seed: 1}
}

// benchFigure regenerates one figure and returns its metrics under their
// run-manifest names. It times a cold figure: off the clock it empties the
// shared trace cache, and with it the results earlier figures or
// iterations memoized, then regenerates the traces, so every iteration
// simulates each of the figure's cells.
func benchFigure(b *testing.B, id string) map[string]float64 {
	b.Helper()
	o := benchOpts()
	b.StopTimer()
	sim.ResetSharedTraces()
	for _, app := range Workloads() {
		if _, err := sim.SharedTrace(app, o.Ops+o.Warmup, o.Seed); err != nil {
			b.Fatal(err)
		}
	}
	b.StartTimer()
	_, m, err := sim.RunFigure(id, o)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if text, _, err := sim.RunFigure("table1", benchOpts()); err != nil || text == "" {
			b.Fatal("empty table", err)
		}
	}
}

func BenchmarkFig2SpecInOPotential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "fig2")
		b.ReportMetric(m["fig2.norm_ipc_geomean.SpecInO[2,1]_All"], "specino21-x")
		b.ReportMetric(m["fig2.norm_ipc_geomean.SpecInO[2,1]_Non-mem"], "specino21nm-x")
		b.ReportMetric(m["fig2.norm_ipc_geomean.OoO"], "ooo-x")
	}
}

func BenchmarkFig6IPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "fig6")
		b.ReportMetric(m["fig6.norm_ipc_geomean.LSC"], "lsc-x")
		b.ReportMetric(m["fig6.norm_ipc_geomean.Freeway"], "freeway-x")
		b.ReportMetric(m["fig6.norm_ipc_geomean.CASINO"], "casino-x")
		b.ReportMetric(m["fig6.norm_ipc_geomean.OoO"], "ooo-x")
	}
}

func BenchmarkFig7Renaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "fig7")
		b.ReportMetric(m["fig7.norm_ipc.ConD[32,14]"], "cond-vs-conv-x")
		b.ReportMetric(m["fig7.allocs_per_kc.ConD[32,14]"]/m["fig7.allocs_per_kc.ConV[32,14]"], "alloc-ratio")
		b.ReportMetric(m["fig7.issue_frac.spec_mem"]+m["fig7.issue_frac.spec_non_mem"], "siq-frac")
	}
}

func BenchmarkFig8Disambiguation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "fig8")
		b.ReportMetric(m["fig8.norm_ipc.AGI-Ordering"], "agi-ipc-x")
		b.ReportMetric(m["fig8.norm_ipc.NoLQ+OSCA"], "osca-ipc-x")
		b.ReportMetric(m["fig8.sq_searches_per_ki.NoLQ+OSCA"]/m["fig8.sq_searches_per_ki.NoLQ"], "osca-search-ratio")
		b.ReportMetric(m["fig8.norm_perf_per_energy.NoLQ+OSCA"], "osca-eff-x")
	}
}

func BenchmarkFig9AreaEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "fig9")
		b.ReportMetric(m["fig9.norm_area.CASINO"], "casino-area-x")
		b.ReportMetric(m["fig9.norm_area.OoO"], "ooo-area-x")
		b.ReportMetric(m["fig9.norm_energy.CASINO"], "casino-energy-x")
		b.ReportMetric(m["fig9.norm_energy.OoO"], "ooo-energy-x")
		b.ReportMetric(m["fig9.norm_energy.OoO+NoLQ"], "ooonolq-energy-x")
	}
}

func BenchmarkFig10aIQSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "fig10a")
		b.ReportMetric(m["fig10a.norm_ipc.iq12"], "iq12-x")
		b.ReportMetric(m["fig10a.norm_ipc.iq4"], "iq4-x")
		b.ReportMetric(m["fig10a.s_issue_frac.iq12"], "iq12-sissue")
	}
}

func BenchmarkFig10bWindowConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "fig10b")
		b.ReportMetric(m["fig10b.norm_ipc.[2,1]"], "ws2so1-x")
		b.ReportMetric(m["fig10b.norm_ipc.[2,2]"], "ws2so2-x")
		b.ReportMetric(m["fig10b.norm_ipc.[4,4]"], "ws4so4-x")
	}
}

func BenchmarkFig11WiderIssue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "fig11")
		b.ReportMetric(m["fig11.norm_ipc.CASINO.4w"], "casino4w-x")
		b.ReportMetric(m["fig11.norm_ipc.OoO.4w"], "ooo4w-x")
		b.ReportMetric(m["fig11.norm_perf_per_energy.CASINO.4w"]/m["fig11.norm_perf_per_energy.OoO.4w"], "casino4w-eff-vs-ooo")
	}
}

func BenchmarkSectionStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := benchFigure(b, "stats")
		b.ReportMetric(m["stats.casinoSIQFrac"], "siq-frac")
		b.ReportMetric(m["stats.producerDist"], "producer-dist")
		b.ReportMetric(m["stats.specInOOoOFrac"], "specino-ooo-frac")
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

func casinoGeomean(b *testing.B, o sim.Options, mod func(*core.Config)) float64 {
	b.Helper()
	res, err := runCasinoSweep(o, mod)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func runCasinoSweep(o sim.Options, mod func(*core.Config)) (float64, error) {
	apps := o.Apps
	if len(apps) == 0 {
		apps = []string{"libquantum", "milc", "h264ref", "gcc", "cactusADM"}
	}
	prod := 1.0
	for _, app := range apps {
		cfg := core.DefaultConfig()
		if mod != nil {
			mod(&cfg)
		}
		r, err := sim.Run(sim.Spec{
			Model: sim.ModelCASINO, Workload: app,
			Ops: o.Ops, Warmup: o.Warmup, Seed: o.Seed, CasinoCfg: &cfg,
		})
		if err != nil {
			return 0, err
		}
		prod *= r.IPC
	}
	n := float64(len(apps))
	return math.Pow(prod, 1/n), nil
}

func BenchmarkAblationOSCASize(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		base := casinoGeomean(b, o, nil) // 64 counters
		for _, size := range []int{16, 128} {
			sz := size
			ipc := casinoGeomean(b, o, func(c *core.Config) { c.OSCASize = sz })
			b.ReportMetric(ipc/base, fmt.Sprintf("osca%d-x", sz))
		}
	}
}

func BenchmarkAblationDataBuffer(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		base := casinoGeomean(b, o, nil) // 4 entries
		small := casinoGeomean(b, o, func(c *core.Config) { c.DataBufSize = 1 })
		large := casinoGeomean(b, o, func(c *core.Config) { c.DataBufSize = 16 })
		b.ReportMetric(small/base, "db1-x")
		b.ReportMetric(large/base, "db16-x")
	}
}

func BenchmarkAblationArbitration(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		iqFirst := casinoGeomean(b, o, nil)
		siqFirst := casinoGeomean(b, o, func(c *core.Config) { c.SIQPriority = true })
		b.ReportMetric(siqFirst/iqFirst, "siq-priority-x")
	}
}

func BenchmarkAblationResourceStall(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		wait := casinoGeomean(b, o, nil)
		pass := casinoGeomean(b, o, func(c *core.Config) { c.PassOnResourceStall = true })
		b.ReportMetric(pass/wait, "pass-on-stall-x")
	}
}

func BenchmarkAblationProducerCount(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		base := casinoGeomean(b, o, nil) // 2-bit (3 producers)
		one := casinoGeomean(b, o, func(c *core.Config) { c.MaxProducers = 1 })
		b.ReportMetric(one/base, "prodcnt1-x")
	}
}

// --- microbenchmarks: simulator throughput ---

func BenchmarkSimulatorThroughputCASINO(b *testing.B) {
	benchThroughput(b, sim.ModelCASINO)
}

func BenchmarkSimulatorThroughputOoO(b *testing.B) {
	benchThroughput(b, sim.ModelOoO)
}

func BenchmarkSimulatorThroughputInO(b *testing.B) {
	benchThroughput(b, sim.ModelInO)
}

func benchThroughput(b *testing.B, model string) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(sim.Spec{Model: model, Workload: "gcc", Ops: 20000, Warmup: 2000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := GenerateTrace("mcf", 100000, 1)
		if err != nil || tr.Len() < 100000 {
			b.Fatal("generation failed")
		}
	}
}

// --- substrate ablations: memory-system knobs the paper's MLP story
// depends on (MSHR count bounds MLP; the stride prefetcher shifts how
// much latency remains to hide; store-set clearing trades violations for
// serialization) ---

func BenchmarkAblationMSHRs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := ipcWithMem(b, 8)
		b.ReportMetric(ipcWithMem(b, 1)/base, "mshr1-x")
		b.ReportMetric(ipcWithMem(b, 16)/base, "mshr16-x")
	}
}

func ipcWithMem(b *testing.B, mshrs int) float64 {
	b.Helper()
	cfg := defaultMem()
	cfg.L1DMSHRs = mshrs
	r, err := sim.Run(sim.Spec{Model: sim.ModelCASINO, Workload: "milc",
		Ops: 30000, Warmup: 8000, Seed: 1, MemCfg: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	return r.IPC
}

func BenchmarkAblationPrefetcher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(degree int) float64 {
			cfg := defaultMem()
			cfg.PrefetchDegree = degree
			r, err := sim.Run(sim.Spec{Model: sim.ModelCASINO, Workload: "libquantum",
				Ops: 30000, Warmup: 8000, Seed: 1, MemCfg: &cfg})
			if err != nil {
				b.Fatal(err)
			}
			return r.IPC
		}
		base := run(2)
		b.ReportMetric(run(0)/base, "nopf-x")
		b.ReportMetric(run(4)/base, "pf4-x")
	}
}

func BenchmarkAblationStoreSetClearing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(interval uint64) (float64, float64) {
			cfg := DefaultOoOConfig()
			cfg.SSClearInterval = interval
			r, err := sim.Run(sim.Spec{Model: sim.ModelOoO, Workload: "h264ref",
				Ops: 30000, Warmup: 8000, Seed: 1, OoOCfg: &cfg})
			if err != nil {
				b.Fatal(err)
			}
			return r.IPC, r.Extra["violations"]
		}
		baseIPC, baseViol := run(0) // idealized: never clears
		clrIPC, clrViol := run(4096)
		b.ReportMetric(clrIPC/baseIPC, "clear4k-ipc-x")
		if baseViol > 0 {
			b.ReportMetric(clrViol/baseViol, "clear4k-viol-x")
		} else {
			b.ReportMetric(clrViol, "clear4k-viols")
		}
	}
}

// BenchmarkExtensionMemLatency is an extension study beyond the paper: how
// the CASINO-vs-OoO gap responds to memory latency (DDR4 speed grades).
// The slower the memory, the more scheduling window depth matters — the
// gap should widen at DDR4-1600 and narrow at DDR4-3200.
func BenchmarkExtensionMemLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gap := func(mts int) float64 {
			cfg := DefaultMemConfig()
			cfg.DRAMSpeedMTS = mts
			var ipc [2]float64
			for j, model := range []string{sim.ModelCASINO, sim.ModelOoO} {
				r, err := sim.Run(sim.Spec{Model: model, Workload: "mcf",
					Ops: 30000, Warmup: 8000, Seed: 1, MemCfg: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				ipc[j] = r.IPC
			}
			return ipc[0] / ipc[1] // CASINO as a fraction of OoO
		}
		b.ReportMetric(gap(1600), "ddr1600-casino/ooo")
		b.ReportMetric(gap(2400), "ddr2400-casino/ooo")
		b.ReportMetric(gap(3200), "ddr3200-casino/ooo")
	}
}

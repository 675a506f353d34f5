package sim

import (
	"fmt"
	"slices"
	"strings"

	"casino/internal/core"
	"casino/internal/ino"
	"casino/internal/ooo"
	"casino/internal/specino"
	"casino/internal/stats"
	"casino/internal/workload"
)

// Options parameterizes an experiment suite.
type Options struct {
	Apps   []string // nil = all 25 profiles
	Ops    int
	Warmup int
	Seed   int64

	// Sampling, when non-nil, runs every cell of the suite in sampled mode
	// (see Spec.Sampling): figure tables are then built from sampled-mode
	// IPC estimates instead of full-fidelity measurements.
	Sampling *Sampling

	// Workers bounds the sharded cell runner's parallelism for the suite;
	// 0 means one worker per CPU (see RunCells).
	Workers int
}

func (o Options) apps() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return workload.Names()
}

func (o Options) fill(s *Spec) {
	s.Ops = o.Ops
	s.Warmup = o.Warmup
	if s.Warmup == 0 {
		s.Warmup = DefaultWarmup
	}
	s.Seed = o.Seed
	if o.Sampling != nil {
		g := *o.Sampling
		s.Sampling = &g
	}
}

// traceLen returns the dynamic trace length a Run of these Options needs,
// applying the same defaulting Run and fill do. runMatrix keys the trace
// cache with it so pre-resolved traces match what Run would generate.
func (o Options) traceLen() int {
	ops := o.Ops
	if ops <= 0 {
		ops = DefaultOps
	}
	warm := o.Warmup
	if warm == 0 {
		warm = DefaultWarmup
	}
	if warm < 0 {
		warm = 0
	}
	return ops + warm
}

// runMatrix executes specs[i] for every app in parallel and returns
// results indexed [app][i]. Each app's trace is resolved once up front
// through the shared cache and handed to every spec in the column, so a
// figure never generates the same trace twice, and each cell runs through
// that trace's result memo, so no distinct cell is simulated twice on one
// trace: a figure reuses the machines earlier figures (or earlier columns
// of the same matrix) already ran. Execution goes through the sharded cell
// runner (runner.go): all worker errors are aggregated (not just the
// first), each naming its (app, model[index]) cell. An app with any failed
// cell is dropped from the result map entirely — a column with zero-valued
// Results would silently corrupt the figure's normalizations — so on
// partial failure callers get the error plus only the complete columns.
func runMatrix(o Options, mkSpecs func(app string) []Spec) (map[string][]Result, error) {
	apps := o.apps()
	var cells []Cell
	out := make(map[string][]Result, len(apps))
	entries := make(map[string]cachedTrace, len(apps))
	n := o.traceLen()
	for _, app := range apps {
		ct, err := sharedTraces.entry(app, n, o.Seed)
		if err != nil {
			return nil, err
		}
		entries[app] = ct
		specs := mkSpecs(app)
		out[app] = make([]Result, len(specs))
		for i, s := range specs {
			s.Workload = app
			o.fill(&s)
			cells = append(cells, Cell{App: app, Model: s.Model, Index: i, Spec: s})
		}
	}
	results := RunCells(cells, o.Workers, func(c Cell) (Result, error) {
		return entries[c.App].run(c.Spec)
	}, nil)
	failed := map[string]bool{}
	for _, r := range results {
		if r.Err != nil {
			failed[r.Cell.App] = true
			continue
		}
		out[r.Cell.App][r.Cell.Index] = r.Result
	}
	for app := range failed {
		delete(out, app)
	}
	if err := JoinCellErrors(results); err != nil {
		return out, err
	}
	return out, nil
}

// figure is one reproducible table or figure of the paper's evaluation.
// The figures list below is the only place a figure is named: the text
// tables, the run manifests the golden gate diffs, and the raw-JSON export
// all look figures up in it.
type figure struct {
	id      string
	aliases []string // accepted like id, case-insensitively
	// prose marks a table with no numeric output (Table I): it renders
	// text but has no metrics and no manifest.
	prose bool
	// suite is set for the per-app IPC suites, whose raw per-app results
	// RunSuiteJSON exports.
	suite *suiteDef
	// run regenerates the figure: it returns the rendered text table and
	// hands each metric to put under its manifest name (without the
	// "<id>." prefix).
	run func(o Options, put func(name string, v float64)) (string, error)
}

var figures = []figure{
	{id: "table1", aliases: []string{"table-1", "1"}, prose: true, run: table1},
	{id: "fig2", aliases: []string{"2"}, suite: fig2Suite, run: fig2Suite.run},
	{id: "fig6", aliases: []string{"6"}, suite: fig6Suite, run: fig6Suite.run},
	{id: "fig7", aliases: []string{"7"}, run: fig7},
	{id: "fig8", aliases: []string{"8"}, run: fig8},
	{id: "fig9", aliases: []string{"9"}, run: fig9},
	{id: "fig10a", aliases: []string{"10a"}, run: fig10a},
	{id: "fig10b", aliases: []string{"10b"}, run: fig10b},
	{id: "fig11", aliases: []string{"11"}, run: fig11},
	{id: "stats", run: sectionStats},
}

// FigureIDs lists the reproducible table/figure identifiers in
// evaluation order.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// lookupFigure resolves a figure id or alias ("fig10b", "10b", "Fig10B").
func lookupFigure(id string) (*figure, bool) {
	id = strings.ToLower(id)
	for i := range figures {
		if f := &figures[i]; f.id == id || slices.Contains(f.aliases, id) {
			return f, true
		}
	}
	return nil, false
}

// RunFigure regenerates one of the paper's tables or figures, named by id
// or alias. It returns the rendered text table and the figure's metrics
// under their run-manifest names ("fig7.norm_ipc.ConD[32,14]"); Table I
// has no metrics.
func RunFigure(id string, o Options) (string, map[string]float64, error) {
	f, ok := lookupFigure(id)
	if !ok {
		return "", nil, fmt.Errorf("sim: unknown figure %q (known: %v)", id, FigureIDs())
	}
	return f.regenerate(o)
}

// regenerate runs the figure and names each metric "<id>.<name>", with the
// spaces of spec labels ("SpecInO[2,1] All") turned into underscores.
func (f *figure) regenerate(o Options) (string, map[string]float64, error) {
	metrics := map[string]float64{}
	text, err := f.run(o, func(name string, v float64) {
		metrics[f.id+"."+strings.ReplaceAll(name, " ", "_")] = v
	})
	if err != nil {
		return "", nil, err
	}
	return text, metrics, nil
}

// suiteDef is one per-app IPC suite (Figs. 2 and 6): the spec column
// labels and the builder producing the specs for an app. The rendered
// table, the manifest metrics and the raw-JSON export all run it.
type suiteDef struct {
	labels []string
	mk     func(app string) []Spec
}

var fig2Suite = &suiteDef{
	labels: []string{"InO", "SpecInO[2,2] Non-mem", "SpecInO[2,2] All",
		"SpecInO[2,1] Non-mem", "SpecInO[2,1] All", "OoO"},
	mk: func(string) []Spec {
		ws := func(w, so int, nonMem bool) *specino.Config {
			c := specino.DefaultConfig(w, so)
			c.NonMemOnly = nonMem
			return &c
		}
		return []Spec{
			{Model: ModelInO},
			{Model: ModelSpecInO, SpecInOCfg: ws(2, 2, true)},
			{Model: ModelSpecInO, SpecInOCfg: ws(2, 2, false)},
			{Model: ModelSpecInO, SpecInOCfg: ws(2, 1, true)},
			{Model: ModelSpecInO, SpecInOCfg: ws(2, 1, false)},
			{Model: ModelOoO},
		}
	},
}

var fig6Suite = &suiteDef{
	labels: []string{"InO", "LSC", "Freeway", "CASINO", "OoO"},
	mk: func(string) []Spec {
		return []Spec{
			{Model: ModelInO},
			{Model: ModelLSC},
			{Model: ModelFreeway},
			{Model: ModelCASINO},
			{Model: ModelOoO},
		}
	},
}

// run reproduces a per-app IPC figure: Figure 2 (the SpecInO limit study)
// or Figure 6 (LSC, Freeway, CASINO and OoO), each normalized to InO per
// application plus geomean. Its metrics are the normalized geomean per
// model — the paper's headline speedups — plus, per model label, the
// across-app mean of every per-run registry metric (occupancy means,
// stall counters, structure activity). The latter is what lets the golden
// gate name the internal counter that moved, not just the IPC it moved.
func (d *suiteDef) run(o Options, put func(string, float64)) (string, error) {
	res, err := runMatrix(o, d.mk)
	if err != nil {
		return "", err
	}
	t, geo := normalizedIPCTable(o, d.labels, res)
	for label, g := range geo {
		put("norm_ipc_geomean."+label, g)
	}
	apps := o.apps()
	for i, label := range d.labels {
		agg := map[string]float64{}
		cnt := map[string]int{}
		for _, app := range apps {
			r := res[app][i]
			agg["ipc"] += r.IPC
			cnt["ipc"]++
			agg["energy_per_inst_pj"] += r.EnergyPerInst
			cnt["energy_per_inst_pj"]++
			for k, v := range r.Extra {
				agg[k] += v
				cnt[k]++
			}
		}
		for k, v := range agg {
			put(fmt.Sprintf("mean.%s.%s", label, k), v/float64(cnt[k]))
		}
	}
	return t.String(), nil
}

// table1 renders the machine configurations (the paper's Table I).
func table1(Options, func(string, float64)) (string, error) {
	t := stats.NewTable("Parameter", "InO", "CASINO", "OoO")
	t.AddRow("Core", "2-wide @ 2GHz", "2-wide @ 2GHz", "2-wide @ 2GHz")
	t.AddRow("Pipeline depth", "7 stages", "9 stages", "9 stages")
	t.AddRow("Issue queue", "16", "4 (S-IQ) / 12 (IQ)", "16")
	t.AddRow("Load queue", "-", "-", "16")
	t.AddRow("Store queue/buffer", "4", "8", "8")
	t.AddRow("Physical registers", "-", "32 INT, 14 FP", "48 INT, 24 FP")
	t.AddRow("Instruction window", "4-entry SCB", "32-entry ROB", "32-entry ROB")
	t.AddRow("Functional units", "2 ALU, 2 FP, 2 AGU", "2 ALU, 2 FP, 2 AGU", "2 ALU, 2 FP, 2 AGU")
	t.AddRow("Branch predictor", "TAGE 17-bit GHR", "TAGE 17-bit GHR", "TAGE 17-bit GHR")
	t.AddRow("BTB", "512x4", "512x4", "512x4")
	t.AddRow("L1I/L1D", "32 KiB 8-way, 4 cyc", "32 KiB 8-way, 4 cyc", "32 KiB 8-way, 4 cyc")
	t.AddRow("L2", "1 MiB 16-way, 11 cyc + stride prefetch", "same", "same")
	t.AddRow("DRAM", "DDR4-2400, 1 ch/1 rank/16 banks", "same", "same")
	return t.String(), nil
}

// normalizedIPCTable builds a per-app table of IPCs normalized to the
// first model, appending the geomean row, and returns the geomeans.
func normalizedIPCTable(o Options, names []string, res map[string][]Result) (*stats.Table, map[string]float64) {
	header := append([]string{"app"}, names...)
	t := stats.NewTable(header...)
	perModel := make([][]float64, len(names))
	for _, app := range o.apps() {
		rs := res[app]
		base := rs[0].IPC
		row := make([]interface{}, 0, len(names)+1)
		row = append(row, app)
		for i := range names {
			norm := stats.Ratio(rs[i].IPC, base)
			row = append(row, norm)
			perModel[i] = append(perModel[i], norm)
		}
		t.AddRow(row...)
	}
	geo := map[string]float64{}
	geoRow := []interface{}{"geomean"}
	for i, n := range names {
		g := stats.Geomean(perModel[i])
		geo[n] = g
		geoRow = append(geoRow, g)
	}
	t.AddRow(geoRow...)
	return t, geo
}

// fig7 reproduces Figure 7: conventional vs conditional renaming. Its
// metrics are the geomean IPC normalized to ConV[32,14] and the mean
// register allocations per 1000 cycles per renaming scheme, and ConD's
// issue-rate breakdown (fractions of all issues, warm-up included).
func fig7(o Options, put func(string, float64)) (string, error) {
	conv := func(intN, fpN int) *core.Config {
		c := core.DefaultConfig()
		c.Renaming = core.RenameConventional
		c.IntPRF, c.FPPRF = intN, fpN
		return &c
	}
	cond := core.DefaultConfig()
	names := []string{"ConV[32,14]", "ConD[32,14]", "ConV[48,24]"}
	res, err := runMatrix(o, func(string) []Spec {
		return []Spec{
			{Model: ModelCASINO, CasinoCfg: conv(32, 14)},
			{Model: ModelCASINO, CasinoCfg: &cond},
			{Model: ModelCASINO, CasinoCfg: conv(48, 24)},
		}
	})
	if err != nil {
		return "", err
	}
	t := stats.NewTable("app", "ConV[32,14] IPC", "ConD[32,14] IPC", "ConV[48,24] IPC",
		"ConV allocs/kc", "ConD allocs/kc")
	perModel := make([][]float64, 3)
	allocs := make([][]float64, 3)
	var sm, snm, m, nm float64
	for _, app := range o.apps() {
		rs := res[app]
		base := rs[0].IPC
		row := []interface{}{app}
		for i := 0; i < 3; i++ {
			row = append(row, rs[i].IPC)
			perModel[i] = append(perModel[i], stats.Ratio(rs[i].IPC, base))
			allocs[i] = append(allocs[i], 1000*stats.Ratio(rs[i].Extra["regAllocs"], float64(rs[i].Cycles)))
		}
		row = append(row, 1000*stats.Ratio(rs[0].Extra["regAllocs"], float64(rs[0].Cycles)))
		row = append(row, 1000*stats.Ratio(rs[1].Extra["regAllocs"], float64(rs[1].Cycles)))
		t.AddRow(row...)
		sm += rs[1].Extra["siqMem"]
		snm += rs[1].Extra["siqNonMem"]
		m += rs[1].Extra["iqMem"]
		nm += rs[1].Extra["iqNonMem"]
	}
	for i, n := range names {
		put("norm_ipc."+n, stats.Geomean(perModel[i]))
		put("allocs_per_kc."+n, stats.Mean(allocs[i]))
	}
	var frac [4]float64 // Sp-Mem, Sp-N-mem, Mem, N-mem
	if tot := sm + snm + m + nm; tot > 0 {
		frac = [4]float64{sm / tot, snm / tot, m / tot, nm / tot}
	}
	put("issue_frac.spec_mem", frac[0])
	put("issue_frac.spec_non_mem", frac[1])
	put("issue_frac.mem", frac[2])
	put("issue_frac.non_mem", frac[3])
	return t.String() + fmt.Sprintf("\nissue breakdown (ConD): Sp-Mem=%.2f Sp-N-mem=%.2f Mem=%.2f N-mem=%.2f\n",
		frac[0], frac[1], frac[2], frac[3]), nil
}

// fig8 reproduces Figure 8: memory disambiguation schemes. Its metrics are
// the LQ/SQ activity per 1k instructions, and the geomean IPC and energy
// efficiency normalized to the fully-OoO (16-entry LQ) baseline.
func fig8(o Options, put func(string, float64)) (string, error) {
	casino := func(d core.DisambigMode, osca int) *core.Config {
		c := core.DefaultConfig()
		c.Disambig = d
		c.OSCASize = osca
		return &c
	}
	names := []string{"FullyOoO-LQ", "AGI-Ordering", "NoLQ", "NoLQ+OSCA"}
	res, err := runMatrix(o, func(string) []Spec {
		return []Spec{
			// The baseline is CASINO with a conventional 16-entry LQ
			// (§VI-C: "Fully OoO with 16-entry LQ").
			{Model: ModelCASINO, CasinoCfg: casino(core.DisambigFullLQ, 0)},
			{Model: ModelCASINO, CasinoCfg: casino(core.DisambigAGIOrder, 0)},
			{Model: ModelCASINO, CasinoCfg: casino(core.DisambigNoLQ, 0)},
			{Model: ModelCASINO, CasinoCfg: casino(core.DisambigOSCA, 64)},
		}
	})
	if err != nil {
		return "", err
	}
	t := stats.NewTable("scheme", "LQ R/ki", "LQ W/ki", "LQ S/ki", "SQ S/ki", "norm IPC", "norm perf/energy")
	perIPC := make([][]float64, len(names))
	perEff := make([][]float64, len(names))
	agg := make([]map[string]float64, len(names))
	for i := range agg {
		agg[i] = map[string]float64{}
	}
	var instr float64
	for _, app := range o.apps() {
		rs := res[app]
		for i := range names {
			agg[i]["lqR"] += rs[i].Extra["lqReads"]
			agg[i]["lqW"] += rs[i].Extra["lqWrites"]
			agg[i]["lqS"] += rs[i].Extra["lqSearches"]
			agg[i]["sqS"] += rs[i].Extra["sqSearches"]
			perIPC[i] = append(perIPC[i], stats.Ratio(rs[i].IPC, rs[0].IPC))
			perEff[i] = append(perEff[i], stats.Ratio(rs[i].PerfPerEnergy, rs[0].PerfPerEnergy))
		}
		instr += float64(rs[0].Instructions)
	}
	for i, n := range names {
		ki := instr / 1000
		lqR, lqW := stats.Ratio(agg[i]["lqR"], ki), stats.Ratio(agg[i]["lqW"], ki)
		lqS, sqS := stats.Ratio(agg[i]["lqS"], ki), stats.Ratio(agg[i]["sqS"], ki)
		ipc, eff := stats.Geomean(perIPC[i]), stats.Geomean(perEff[i])
		put("lq_reads_per_ki."+n, lqR)
		put("lq_writes_per_ki."+n, lqW)
		put("lq_searches_per_ki."+n, lqS)
		put("sq_searches_per_ki."+n, sqS)
		put("norm_ipc."+n, ipc)
		put("norm_perf_per_energy."+n, eff)
		t.AddRow(n, lqR, lqW, lqS, sqS, ipc, eff)
	}
	return t.String(), nil
}

// fig9 reproduces Figure 9: core area and energy consumption for InO,
// CASINO, OoO and OoO+NoLQ, normalized to InO.
func fig9(o Options, put func(string, float64)) (string, error) {
	names := []string{"InO", "CASINO", "OoO", "OoO+NoLQ"}
	res, err := runMatrix(o, func(string) []Spec {
		return []Spec{
			{Model: ModelInO},
			{Model: ModelCASINO},
			{Model: ModelOoO},
			{Model: ModelOoONoLQ},
		}
	})
	if err != nil {
		return "", err
	}
	energyTot := make([]float64, len(names))
	var area [4]float64
	for _, app := range o.apps() {
		for i := range names {
			energyTot[i] += res[app][i].TotalPJ
			area[i] = res[app][i].AreaMM2
		}
	}
	t := stats.NewTable("core", "area mm2", "norm area", "norm energy")
	for i, n := range names {
		normArea, normEnergy := stats.Ratio(area[i], area[0]), stats.Ratio(energyTot[i], energyTot[0])
		put("norm_area."+n, normArea)
		put("norm_energy."+n, normEnergy)
		t.AddRow(n, area[i], normArea, normEnergy)
	}
	return t.String(), nil
}

// fig10a reproduces Figure 10a: the IQ size sweep with the
// committed-issue breakdown (S-Issue vs Issue), per size the geomean IPC
// normalized to the smallest IQ and the mean S-Issue fraction.
func fig10a(o Options, put func(string, float64)) (string, error) {
	sizes := []int{4, 8, 12, 16, 20}
	res, err := runMatrix(o, func(string) []Spec {
		specs := make([]Spec, len(sizes))
		for i, sz := range sizes {
			cfg := core.DefaultConfig()
			cfg.IQSize = sz
			// "Unlimited other resources" for the sweep.
			cfg.ROBSize = 256
			cfg.SQSize = 64
			cfg.IntPRF, cfg.FPPRF = 256, 128
			cfg.DataBufSize = 64
			specs[i] = Spec{Model: ModelCASINO, CasinoCfg: &cfg}
		}
		return specs
	})
	if err != nil {
		return "", err
	}
	t := stats.NewTable("IQ size", "norm IPC", "S-Issue frac")
	for i, sz := range sizes {
		var norm, sfrac []float64
		for _, app := range o.apps() {
			norm = append(norm, stats.Ratio(res[app][i].IPC, res[app][0].IPC))
			sfrac = append(sfrac, res[app][i].Extra["siqFrac"])
		}
		g := stats.Geomean(norm)
		f := stats.Mean(sfrac)
		put(fmt.Sprintf("norm_ipc.iq%d", sz), g)
		put(fmt.Sprintf("s_issue_frac.iq%d", sz), f)
		t.AddRow(sz, g, f)
	}
	return t.String(), nil
}

// fig10b reproduces Figure 10b: the SpecInO[WS,SO] sweep on the CASINO
// core, as geomean IPC normalized to [1,1].
func fig10b(o Options, put func(string, float64)) (string, error) {
	type pt struct{ ws, so int }
	pts := []pt{{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}, {4, 2}, {4, 4}}
	res, err := runMatrix(o, func(string) []Spec {
		specs := make([]Spec, len(pts))
		for i, p := range pts {
			cfg := core.DefaultConfig()
			cfg.WS, cfg.SO = p.ws, p.so
			specs[i] = Spec{Model: ModelCASINO, CasinoCfg: &cfg}
		}
		return specs
	})
	if err != nil {
		return "", err
	}
	t := stats.NewTable("[WS,SO]", "geomean IPC norm to [1,1]")
	for i, p := range pts {
		var norm []float64
		for _, app := range o.apps() {
			norm = append(norm, stats.Ratio(res[app][i].IPC, res[app][0].IPC))
		}
		key := fmt.Sprintf("[%d,%d]", p.ws, p.so)
		g := stats.Geomean(norm)
		put("norm_ipc."+key, g)
		t.AddRow(key, g)
	}
	return t.String(), nil
}

// fig11 reproduces Figure 11: 2/3/4-wide InO, CASINO and OoO, with
// performance and energy efficiency normalized to the 2-wide InO.
func fig11(o Options, put func(string, float64)) (string, error) {
	widths := []int{2, 3, 4}
	models := []string{"InO", "CASINO", "OoO"}
	mkInO := func(w int) *ino.Config {
		c := ino.DefaultConfig()
		scale := 1
		if w == 3 {
			scale = 2
		}
		if w >= 4 {
			scale = 4
		}
		c.Width = w
		c.IQSize *= scale
		c.SCBSize *= scale
		c.SBSize *= scale
		return &c
	}
	var specs []Spec
	for _, w := range widths {
		ic := mkInO(w)
		cc := core.WideConfig(w)
		oc := ooo.WideConfig(w)
		specs = append(specs,
			Spec{Model: ModelInO, InOCfg: ic},
			Spec{Model: ModelCASINO, CasinoCfg: &cc},
			Spec{Model: ModelOoO, OoOCfg: &oc},
		)
	}
	res, err := runMatrix(o, func(string) []Spec { return specs })
	if err != nil {
		return "", err
	}
	t := stats.NewTable("config", "norm IPC", "norm perf/energy")
	for i := range specs {
		var nIPC, nEff []float64
		for _, app := range o.apps() {
			base := res[app][0] // 2-wide InO
			nIPC = append(nIPC, stats.Ratio(res[app][i].IPC, base.IPC))
			nEff = append(nEff, stats.Ratio(res[app][i].PerfPerEnergy, base.PerfPerEnergy))
		}
		gI, gE := stats.Geomean(nIPC), stats.Geomean(nEff)
		model, width := models[i%3], widths[i/3]
		put(fmt.Sprintf("norm_ipc.%s.%dw", model, width), gI)
		put(fmt.Sprintf("norm_perf_per_energy.%s.%dw", model, width), gE)
		t.AddRow(fmt.Sprintf("%s-%dw", model, width), gI, gE)
	}
	return t.String(), nil
}

// sectionStats reports the §II-C / §VI-B aggregate statistics: the
// fraction of dynamic instructions issued speculatively, and the mean
// producer distance of passed instructions.
func sectionStats(o Options, put func(string, float64)) (string, error) {
	res, err := runMatrix(o, func(string) []Spec {
		return []Spec{
			{Model: ModelCASINO},
			{Model: ModelSpecInO},
		}
	})
	if err != nil {
		return "", err
	}
	var siq, dist, specFrac []float64
	t := stats.NewTable("app", "CASINO S-IQ frac", "producer dist", "SpecInO OoO frac")
	for _, app := range o.apps() {
		rs := res[app]
		siq = append(siq, rs[0].Extra["siqFrac"])
		dist = append(dist, rs[0].Extra["producerDist"])
		specFrac = append(specFrac, rs[1].Extra["oooFrac"])
		t.AddRow(app, rs[0].Extra["siqFrac"], rs[0].Extra["producerDist"], rs[1].Extra["oooFrac"])
	}
	mSIQ, mDist, mSpec := stats.Mean(siq), stats.Mean(dist), stats.Mean(specFrac)
	put("casinoSIQFrac", mSIQ)
	put("producerDist", mDist)
	put("specInOOoOFrac", mSpec)
	t.AddRow("mean", mSIQ, mDist, mSpec)
	return t.String(), nil
}

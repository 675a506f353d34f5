// Command casino-bench regenerates the paper's tables and figures as text
// tables, exports machine-readable run manifests, and diffs two manifests
// for regression gating.
//
// Usage:
//
//	casino-bench -fig 6                  # Fig. 6 over all 25 workloads
//	casino-bench -fig all -ops 100000    # the whole evaluation section
//	casino-bench -fig 8 -apps mcf,milc   # a subset of applications
//	casino-bench -fig all -json run.json # versioned run manifest
//	casino-bench -fig all -workers 4     # shard suite cells over 4 workers
//	casino-bench -fig 6 -sample          # sampled simulation (bounded error)
//	casino-bench -perf bench.json -ab    # full-vs-sampled wall clock + error
//	casino-bench compare golden/fig_all.json run.json
//	casino-bench sweep -grid grid.json -json out.json -workers 1 -progress
//	casino-bench submit -server http://localhost:8573 -grid grid.json -out merged.json -progress
//	casino-bench promlint -min-series 10 metrics.txt
//
// compare exits non-zero when any metric drifts outside its tolerance
// band, printing one line per offending metric. sweep runs a DSE grid
// locally (serial by default); submit posts the same grid to a running
// casino-server, polls to completion, and downloads the merged manifest —
// the two must produce byte-identical manifests for the same grid.
// -progress renders a live cells-done/ETA line (submit streams it from
// the server's SSE endpoint). promlint strictly checks a Prometheus text
// exposition scrape, e.g. of casino-server's /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"casino"
	"casino/internal/manifest"
	"casino/internal/sim"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		case "sweep":
			os.Exit(runSweep(os.Args[2:]))
		case "submit":
			os.Exit(runSubmit(os.Args[2:]))
		case "promlint":
			os.Exit(runPromlint(os.Args[2:]))
		}
	}

	var (
		fig        = flag.String("fig", "6", "figure id ("+strings.Join(casino.Figures(), ", ")+") or 'all'")
		ops        = flag.Int("ops", 60000, "measured instructions per run")
		warmup     = flag.Int("warmup", 15000, "warm-up instructions per run")
		seed       = flag.Int64("seed", 1, "workload generation seed")
		apps       = flag.String("apps", "", "comma-separated workload subset (default: all 25)")
		jsonOut    = flag.String("json", "", "write a versioned run manifest as JSON to this file (any fig, or 'all')")
		rawOut     = flag.String("raw", "", "write raw per-app results as JSON to this file (fig2/fig6 only)")
		perfOut    = flag.String("perf", "", "write a per-figure wall-time / cycles-per-second summary as JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		cpistack   = flag.Bool("cpistack", false, "print the per-model CPI stall-attribution stack and exit")

		workers      = flag.Int("workers", 0, "shard suite cells across this many workers (0 = one per CPU)")
		sample       = flag.Bool("sample", false, "run sampled simulation with functional warming instead of full fidelity")
		samplePeriod = flag.Int("sample-period", 0, fmt.Sprintf("sampling period in ops (0 = default %d)", sim.DefaultSamplePeriod))
		sampleDetail = flag.Int("sample-detail", 0, fmt.Sprintf("detailed-window ops per period (0 = default %d)", sim.DefaultSampleDetail))
		sampleWarm   = flag.Int("sample-warm", 0, fmt.Sprintf("pipeline-warm prefix ops per window (0 = default %d)", sim.DefaultSampleWarmOps))
		abFlag       = flag.Bool("ab", false, "with -perf: run the figure suite at full and sampled fidelity, recording wall clocks and per-figure norm-IPC error")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "casino-bench: %v\n", err)
				return
			}
			runtime.GC() // surface live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "casino-bench: %v\n", err)
			}
			f.Close()
		}()
	}

	o := casino.Options{Ops: *ops, Warmup: *warmup, Seed: *seed, Workers: *workers}
	if *apps != "" {
		o.Apps = strings.Split(*apps, ",")
	}
	if *sample || *samplePeriod > 0 || *sampleDetail > 0 || *sampleWarm > 0 {
		o.Sampling = &sim.Sampling{Period: *samplePeriod, DetailOps: *sampleDetail, WarmOps: *sampleWarm}
	}
	so := sim.Options(o)

	if *cpistack {
		start := time.Now()
		t, _, err := sim.CPIStack(so)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=== cpistack (%.1fs) ===\n%s\n", time.Since(start).Seconds(), t)
		return
	}

	if *jsonOut != "" {
		start := time.Now()
		m, err := sim.BuildManifest(*fig, so)
		if err != nil {
			fatal(err)
		}
		if err := m.WriteFile(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s manifest (%d metrics, %.1fs) to %s\n",
			*fig, len(m.Metrics), time.Since(start).Seconds(), *jsonOut)
		return
	}

	if *rawOut != "" {
		suite, err := sim.RunSuiteJSON(*fig, so)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*rawOut)
		if err != nil {
			fatal(err)
		}
		if err := suite.ExportJSON(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s results to %s\n", *fig, *rawOut)
		return
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = casino.Figures()
	}
	perf := perfSummary{
		Schema: "casino-bench-perf/v2",
		Go:     runtime.Version(),
		OS:     runtime.GOOS, Arch: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: *workers,
		Ops: o.Ops, Warmup: o.Warmup, Seed: o.Seed,
	}
	if *abFlag {
		if *perfOut == "" {
			fatal(fmt.Errorf("-ab needs -perf FILE to record the A/B"))
		}
		os.Exit(runSampledAB(perf, so, *perfOut))
	}
	for _, id := range ids {
		start := time.Now()
		cyc0 := sim.SimulatedCycles()
		out, err := casino.Figure(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, wall, out)
		simCyc := sim.SimulatedCycles() - cyc0
		perf.Total.WallSeconds += wall
		perf.Total.SimCycles += simCyc
		if simCyc == 0 {
			// Figures that run no simulation (static tables like table1)
			// have no meaningful cycle rate; they count toward the total
			// wall clock but get no per-figure rate row.
			continue
		}
		e := perfEntry{Fig: id, WallSeconds: wall, SimCycles: simCyc}
		if wall > 0 {
			e.CyclesPerSecond = float64(simCyc) / wall
		}
		perf.Figures = append(perf.Figures, e)
	}
	if *perfOut != "" {
		perf.Total.Fig = "total"
		if perf.Total.WallSeconds > 0 {
			perf.Total.CyclesPerSecond = float64(perf.Total.SimCycles) / perf.Total.WallSeconds
		}
		b, err := json.MarshalIndent(perf, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*perfOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote perf summary (%d figures, %.2e cycles/s overall) to %s\n",
			len(perf.Figures), perf.Total.CyclesPerSecond, *perfOut)
	}
}

// perfEntry is one figure's simulation-throughput record.
type perfEntry struct {
	Fig             string  `json:"fig"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimCycles       uint64  `json:"sim_cycles"`
	CyclesPerSecond float64 `json:"cycles_per_second"`
}

// perfSummary is the -perf output: the wall-clock trajectory record behind
// the checked-in bench/BENCH_*.json files (see EXPERIMENTS.md). SimCycles
// counts fast-forwarded cycles too, so cycles-per-second reflects the
// simulated clock, not host work. v2 adds the execution environment
// (GOMAXPROCS, worker/shard count) and the optional sampled-vs-full A/B.
type perfSummary struct {
	Schema     string        `json:"schema"`
	Go         string        `json:"go"`
	OS         string        `json:"os"`
	Arch       string        `json:"arch"`
	CPUs       int           `json:"cpus"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"` // 0 = one per CPU (RunCells default)
	Ops        int           `json:"ops"`
	Warmup     int           `json:"warmup"`
	Seed       int64         `json:"seed"`
	Figures    []perfEntry   `json:"figures,omitempty"`
	Total      perfEntry     `json:"total"`
	Sampling   *perfSampling `json:"sampling,omitempty"`
}

// perfABFigure is one figure's accuracy record in a sampled-vs-full A/B:
// the mean and worst absolute percentage error of the sampled arm over
// the figure's normalized-IPC metrics.
type perfABFigure struct {
	Fig         string  `json:"fig"`
	Metrics     int     `json:"norm_ipc_metrics"`
	MAPE        float64 `json:"norm_ipc_mape"`
	WorstAPE    float64 `json:"norm_ipc_worst_ape"`
	WorstMetric string  `json:"norm_ipc_worst_metric"`
}

// perfSampling is the sampled-vs-full A/B section of a v2 perf summary:
// both arms run the complete manifest-bearing figure suite in the same
// process, so the wall-clock ratio is an honest same-box speedup.
type perfSampling struct {
	Period    int `json:"period"`
	DetailOps int `json:"detail_ops"`
	WarmOps   int `json:"warm_ops"`

	FullWallSeconds    float64 `json:"full_wall_seconds"`
	SampledWallSeconds float64 `json:"sampled_wall_seconds"`
	Speedup            float64 `json:"speedup"`
	FullSimCycles      uint64  `json:"full_sim_cycles"`
	SampledSimCycles   uint64  `json:"sampled_sim_cycles"` // detailed windows only

	MAPE    float64        `json:"norm_ipc_mape"` // mean of the per-figure MAPEs
	Figures []perfABFigure `json:"figures"`
}

// runSampledAB measures the tentpole claim end to end: the figure suite at
// full fidelity, then at sampled fidelity, with per-figure normalized-IPC
// error and the same-process wall-clock ratio, written to the -perf file.
func runSampledAB(perf perfSummary, o sim.Options, outPath string) int {
	full := o
	full.Sampling = nil
	samp := o
	if samp.Sampling == nil {
		samp.Sampling = &sim.Sampling{}
	}
	sp := samp.Sampling.Normalized()

	// Resolve every trace before timing either arm, so generation cost
	// (shared by both) does not dilute the ratio.
	for _, app := range casino.Workloads() {
		if len(o.Apps) > 0 {
			break
		}
		if _, err := sim.SharedTrace(app, o.Warmup+o.Ops, o.Seed); err != nil {
			fatal(err)
		}
	}

	t0 := time.Now()
	cyc0 := sim.SimulatedCycles()
	fm, err := sim.BuildManifest("all", full)
	if err != nil {
		fatal(err)
	}
	fullWall := time.Since(t0).Seconds()
	fullCyc := sim.SimulatedCycles() - cyc0

	t1 := time.Now()
	cyc1 := sim.SimulatedCycles()
	sm, err := sim.BuildManifest("all", samp)
	if err != nil {
		fatal(err)
	}
	sampWall := time.Since(t1).Seconds()
	sampCyc := sim.SimulatedCycles() - cyc1

	type acc struct {
		sum, worst float64
		worstKey   string
		n          int
	}
	perFig := map[string]*acc{}
	for k, fv := range fm.Metrics {
		if !strings.Contains(k, "norm_ipc") || fv == 0 {
			continue
		}
		sv, ok := sm.Metrics[k]
		if !ok {
			fatal(fmt.Errorf("sampled manifest missing metric %q", k))
		}
		fig, _, _ := strings.Cut(k, ".")
		a := perFig[fig]
		if a == nil {
			a = &acc{}
			perFig[fig] = a
		}
		ape := (sv - fv) / fv
		if ape < 0 {
			ape = -ape
		}
		a.sum += ape
		a.n++
		if ape > a.worst {
			a.worst, a.worstKey = ape, k
		}
	}
	figs := make([]string, 0, len(perFig))
	for f := range perFig {
		figs = append(figs, f)
	}
	sort.Strings(figs)

	ab := &perfSampling{
		Period: sp.Period, DetailOps: sp.DetailOps, WarmOps: sp.WarmOps,
		FullWallSeconds: fullWall, SampledWallSeconds: sampWall,
		FullSimCycles: fullCyc, SampledSimCycles: sampCyc,
	}
	if sampWall > 0 {
		ab.Speedup = fullWall / sampWall
	}
	for _, f := range figs {
		a := perFig[f]
		e := perfABFigure{
			Fig: f, Metrics: a.n, MAPE: a.sum / float64(a.n),
			WorstAPE: a.worst, WorstMetric: a.worstKey,
		}
		ab.Figures = append(ab.Figures, e)
		ab.MAPE += e.MAPE
		fmt.Printf("%-8s n=%2d MAPE=%5.2f%% worst=%5.2f%% (%s)\n",
			f, e.Metrics, 100*e.MAPE, 100*e.WorstAPE, e.WorstMetric)
	}
	if len(figs) > 0 {
		ab.MAPE /= float64(len(figs))
	}
	fmt.Printf("full %.1fs, sampled %.1fs: speedup %.2fx, mean per-figure MAPE %.2f%%\n",
		fullWall, sampWall, ab.Speedup, 100*ab.MAPE)

	perf.Sampling = ab
	perf.Total = perfEntry{Fig: "total", WallSeconds: fullWall + sampWall, SimCycles: fullCyc + sampCyc}
	if perf.Total.WallSeconds > 0 {
		perf.Total.CyclesPerSecond = float64(perf.Total.SimCycles) / perf.Total.WallSeconds
	}
	b, err := json.MarshalIndent(perf, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote sampled-vs-full A/B to %s\n", outPath)
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "casino-bench: %v\n", err)
	os.Exit(1)
}

// tolFlag collects repeatable -mtol name=rel[:abs] per-metric overrides.
// name may end in '*' for a prefix match (longest pattern wins).
type tolFlag map[string]manifest.Tolerance

func (t tolFlag) String() string { return fmt.Sprint(map[string]manifest.Tolerance(t)) }

func (t tolFlag) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=rel[:abs], got %q", v)
	}
	relS, absS, hasAbs := strings.Cut(spec, ":")
	var tol manifest.Tolerance
	var err error
	if tol.Rel, err = strconv.ParseFloat(relS, 64); err != nil {
		return fmt.Errorf("bad rel in %q: %v", v, err)
	}
	if hasAbs {
		if tol.Abs, err = strconv.ParseFloat(absS, 64); err != nil {
			return fmt.Errorf("bad abs in %q: %v", v, err)
		}
	}
	t[name] = tol
	return nil
}

// runCompare diffs two manifests and returns the process exit code:
// 0 on match, 1 on drift, 2 on usage/IO errors.
func runCompare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	var (
		rel        = fs.Float64("rel", manifest.DefaultTolerance.Rel, "default relative tolerance band")
		abs        = fs.Float64("abs", manifest.DefaultTolerance.Abs, "default absolute tolerance floor")
		allowExtra = fs.Bool("allow-extra", false, "tolerate metrics present only in the candidate")
		perMetric  = tolFlag{}
	)
	fs.Var(perMetric, "mtol", "per-metric tolerance override, name=rel[:abs]; repeatable; name may end in '*'")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: casino-bench compare [flags] golden.json candidate.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	golden, err := manifest.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "casino-bench compare: golden: %v\n", err)
		return 2
	}
	cand, err := manifest.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "casino-bench compare: candidate: %v\n", err)
		return 2
	}

	opt := manifest.CompareOptions{
		Default:    manifest.Tolerance{Rel: *rel, Abs: *abs},
		PerMetric:  perMetric,
		AllowExtra: *allowExtra,
	}
	diffs := manifest.Compare(golden, cand, opt)
	if len(diffs) == 0 {
		fmt.Printf("compare: OK — %d metrics within tolerance (rel %g, abs %g)\n",
			len(golden.Metrics), *rel, *abs)
		return 0
	}
	fmt.Fprintf(os.Stderr, "compare: FAIL — %d difference(s) vs %s:\n", len(diffs), fs.Arg(0))
	for _, d := range diffs {
		fmt.Fprintf(os.Stderr, "  %s\n", d)
	}
	return 1
}

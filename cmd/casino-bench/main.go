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
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		cpistack   = flag.Bool("cpistack", false, "print the per-model CPI stall-attribution stack and exit")

		workers      = flag.Int("workers", 0, "shard suite cells across this many workers (0 = one per CPU)")
		sample       = flag.Bool("sample", false, "run sampled simulation with functional warming instead of full fidelity")
		samplePeriod = flag.Int("sample-period", 0, fmt.Sprintf("sampling period in ops (0 = default %d)", sim.DefaultSamplePeriod))
		sampleDetail = flag.Int("sample-detail", 0, fmt.Sprintf("detailed-window ops per period (0 = default %d)", sim.DefaultSampleDetail))
		sampleWarm   = flag.Int("sample-warm", 0, fmt.Sprintf("pipeline-warm prefix ops per window (0 = default %d)", sim.DefaultSampleWarmOps))
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

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
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s results to %s\n", *fig, *rawOut)
		return
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = casino.Figures()
	}
	for _, id := range ids {
		start := time.Now()
		out, err := casino.Figure(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%.1fs) ===\n%s\n", id, time.Since(start).Seconds(), out)
	}
}

// startProfiles starts the CPU profile when cpuPath is set and returns the
// function that finishes both profiles at exit: it stops the CPU profile
// and, when memPath is set, writes the heap profile. Every Close is
// checked, since a failed one can leave a truncated profile behind.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeapProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // surface live heap, not transient garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

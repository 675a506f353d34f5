// Command casinoperf is the repository's benchmark. One process runs one
// workload: it sets up, repeats the workload's job for a time budget,
// checks that every output is correct, and prints each metric as a
// "workload metric value unit n=N" line followed by a one-line JSON summary.
// Untraced runs report the end-to-end metrics; traced runs (-trace 1)
// alternate plain repeats with repeats that take a CPU profile and keep
// spans in memory, and report the per-layer metrics instead. README.md
// lists the workloads and metrics.
//
// Usage, from the repository root (run.sh builds the harness and the server
// and passes -repo, -server-bin and -trace-dir):
//
//	bash casinoperf/run.sh --workload figures-full --seed 1 --seconds 20 --trace 0
//	casinoperf -workload cells-memory -seed 7 -seconds 20 -trace 1 -out cells.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric BENCHMARK.json lists, with its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports.
var e2eMetrics = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_mcps", "Mcycles/s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// layerPackages are the packages CPU-profile self time is folded into.
var layerPackages = []string{
	"core", "ooo", "ino", "slice", "specino", "eventq", "frontend", "bpred", "mem", "lsu",
	"regfile", "pipeline", "energy", "stats", "sim", "workload", "manifest", "dse",
	"telemetry", "nethttp", "runtime", "other",
}

// layerMetrics are the per-layer metrics every traced run reports.
var layerMetrics = func() []metricDef {
	var defs []metricDef
	for _, p := range layerPackages {
		defs = append(defs, metricDef{"cpu." + p, "frac"})
	}
	return append(defs,
		metricDef{"span.trace_gen_ms", "ms"},
		metricDef{"span.compare_ms", "ms"},
		metricDef{"count.sim_cycles", "count"},
		metricDef{"count.alloc_mb", "MB"},
		metricDef{"count.gc_cycles", "count"},
		metricDef{"micro.mem_load_ns", "ns"},
		metricDef{"micro.mem_warm_ns", "ns"},
		metricDef{"micro.bpred_branch_ns", "ns"},
		metricDef{"micro.trace_gen_ns_per_op", "ns"},
		metricDef{"micro.dse_merge_ms", "ms"},
		metricDef{"norm_ipc_mape", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	out       string // optional JSON report path
	traceDir  string // where a traced run writes its profiles and spans
	repo      string // repository root (golden/ lives there)
	serverBin string // casino-server binary for sweep-service
	writeRef  string // cells-memory: write the reference file here
	workers   int
	size      size
}

// metric is one reported value; n is the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report is everything one run found, written with -out.
type report struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Traced     bool     `json:"traced"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	Go         string   `json:"go"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	Metrics    []metric `json:"metrics"`
	// RepeatWalls and Setups are the untraced run's raw samples behind
	// wall_s and setup_s; Probes are the run's calibration probe times.
	RepeatWalls []float64 `json:"repeat_wall_s,omitempty"`
	Setups      []float64 `json:"setup_s,omitempty"`
	Probes      []float64 `json:"probe_ms,omitempty"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "time budget of the measured phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.out, "out", "", "also write the full report as JSON to this file")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/casinoperf/trace", "directory for the traced run's CPU profiles and spans")
	flag.StringVar(&cfg.repo, "repo", ".", "repository root")
	flag.StringVar(&cfg.serverBin, "server-bin", "", "casino-server binary (sweep-service)")
	flag.StringVar(&cfg.writeRef, "write-ref", "", "cells-memory: write the per-cell reference outputs of this run to this file")
	flag.Parse()

	sz, ok := sizes[cfg.workload]
	if !ok || flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "casinoperf: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg.traced = trace == 1
	cfg.size = sz
	cfg.workers = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(cfg.workers)

	rep := run(cfg)
	for _, m := range rep.Metrics {
		fmt.Printf("%s %s %.6g %s n=%d\n", rep.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "casinoperf: FAIL %s\n", f)
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "casinoperf: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(summary(rep, cfg.traced))
	if err != nil {
		fmt.Fprintf(os.Stderr, "casinoperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary keeps exactly the metrics BENCHMARK.json lists for the run's mode.
func summary(rep *report, traced bool) summaryLine {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	s := summaryLine{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]summaryItem{}}
	for _, d := range defs {
		for _, m := range rep.Metrics {
			if m.Name == d.name {
				s.Metrics[d.name] = summaryItem{m.Value, m.Unit}
			}
		}
	}
	s.Correct = rep.Failed == 0
	return s
}

func workloadNames() []string {
	names := make([]string, 0, len(sizes))
	for n := range sizes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

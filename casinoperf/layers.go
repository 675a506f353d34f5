package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"casino/internal/bpred"
	"casino/internal/dse"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/sim"
	"casino/internal/trace"
	"casino/internal/workload"
)

// foldProfile merges CPU profiles and folds their samples by the package
// of their leaf frame (self time) into the layerPackages shares, using `go
// tool pprof -raw` for merging and decoding.
func foldProfile(paths []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-raw", "-symbolize=none"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw %s: %w", strings.Join(paths, " "), err)
	}
	type sample struct {
		weight float64
		leaf   int
	}
	var samples []sample
	leafFunc := map[int]string{} // location id -> innermost function
	section := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch line {
		case "Samples:", "Locations", "Mappings":
			section = line
			continue
		}
		fields := strings.Fields(line)
		switch {
		case section == "Samples:" && len(fields) >= 3 && strings.HasSuffix(fields[1], ":"):
			// "count value: loc loc ...": the first location is the leaf.
			w, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], ":"), 64)
			leaf, lerr := strconv.Atoi(fields[2])
			if err != nil || lerr != nil {
				return nil, fmt.Errorf("bad sample line %q", line)
			}
			samples = append(samples, sample{w, leaf})
		case section == "Locations" && len(fields) >= 4 && strings.HasSuffix(fields[0], ":"):
			// "id: addr M=n func file:line s=n"; inlined callers follow on
			// continuation lines, so the first function is the innermost.
			id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
			if err != nil {
				return nil, fmt.Errorf("bad location line %q", line)
			}
			leafFunc[id] = fields[3]
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("profiles %s hold no samples", strings.Join(paths, " "))
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		shares[layerOf(leafFunc[s.leaf])] += s.weight
		total += s.weight
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// layerOf maps a symbol such as "casino/internal/mem.(*Cache).Access" to
// its layer.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "casino/internal/"):
		name := strings.TrimPrefix(pkg, "casino/internal/")
		for _, p := range layerPackages {
			if p == name {
				return p
			}
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "internal/poll", pkg == "syscall":
		return "nethttp"
	}
	return "other"
}

// microReplays times single layers through their public functions on
// inputs made from the run's seed, and reports the median of five passes.
func microReplays(b *bench) {
	seed := b.cfg.seed
	const n = 200_000
	mcf, _ := workload.ByName("mcf") // both profiles are built in
	gcc, _ := workload.ByName("gcc")

	var tr *trace.Trace
	b.emit("micro.trace_gen_ns_per_op", medianOf(5, func() float64 {
		t0 := time.Now()
		tr = workload.Generate(mcf, n, seed)
		return float64(time.Since(t0).Nanoseconds()) / float64(tr.Len())
	}), "ns", 5)

	var accs []isa.MicroOp
	for _, op := range tr.Ops {
		if op.Class.IsMem() {
			accs = append(accs, op)
		}
	}
	h := mem.NewHierarchy(mem.DefaultConfig())
	b.emit("micro.mem_load_ns", medianOf(5, func() float64 {
		h.Reset()
		t0 := time.Now()
		for i := range accs {
			if a := &accs[i]; a.Class == isa.Store {
				h.Store(a.PC, a.Addr, int64(i))
			} else {
				h.Load(a.PC, a.Addr, int64(i))
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(accs))
	}), "ns", 5)
	b.emit("micro.mem_warm_ns", medianOf(5, func() float64 {
		h.Reset()
		t0 := time.Now()
		for i := range accs {
			if a := &accs[i]; a.Class == isa.Store {
				h.WarmStore(a.PC, a.Addr, int64(i))
			} else {
				h.WarmLoad(a.PC, a.Addr, int64(i))
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(accs))
	}), "ns", 5)

	var branches []isa.MicroOp
	for _, op := range workload.Generate(gcc, n, seed).Ops {
		if op.Class == isa.Branch {
			branches = append(branches, op)
		}
	}
	p := bpred.NewPredictor()
	b.emit("micro.bpred_branch_ns", medianOf(5, func() float64 {
		p.Reset()
		t0 := time.Now()
		for i := range branches {
			br := &branches[i]
			p.OnBranch(br.PC, br.Taken, br.Target)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(branches))
	}), "ns", 5)

	cells, results, fps, err := recordedSweep(seed)
	if err != nil {
		b.gate("record a sweep for micro.dse_merge_ms", err)
		return
	}
	var mergeErr error
	b.emit("micro.dse_merge_ms", medianOf(5, func() float64 {
		t0 := time.Now()
		if _, err := dse.MergeCells(cells, results, fps); err != nil {
			mergeErr = err
		}
		pts := make([]dse.Point, len(cells))
		for i, c := range cells {
			r := results[i]
			pts[i] = dse.Point{Cell: c.Key(), Model: c.Model, Workload: c.Workload,
				IPC: r.IPC, EnergyPerInst: r.EnergyPerInst, PerfPerEnergy: r.PerfPerEnergy}
		}
		dse.FrontierByWorkload(pts)
		return msSince(t0)
	}), "ms", 5)
	b.gate("merge a recorded sweep", mergeErr)
}

// recordedSweep runs the sweep-service session's largest grid (the widened
// Fig. 6 grid, 70 cells) once at a tiny size for its per-cell results: the
// input of a merge.
func recordedSweep(seed int64) ([]dse.Cell, []sim.Result, map[string]uint64, error) {
	g := session(400, 100, seed)[2].grid
	cells, err := g.Expand()
	if err != nil {
		return nil, nil, nil, err
	}
	fps := map[string]uint64{}
	for _, w := range g.Workloads {
		tr, err := sim.SharedTrace(w, g.Ops+g.Warmup, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		fps[w] = tr.Fingerprint()
	}
	results := make([]sim.Result, len(cells))
	for i, c := range cells {
		spec, err := c.Spec()
		if err == nil {
			results[i], err = sim.Run(spec)
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return cells, results, fps, nil
}

func medianOf(n int, fn func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

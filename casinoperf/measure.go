package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"casino/internal/sim"
)

// size is how much work a workload does; sizes holds the benchmark's own,
// and the smoke test shrinks them.
type size struct {
	apps   []string // the workload's applications (nil = all 25 for figures)
	ops    int
	warmup int
}

// figures-full runs at a fifth of the golden spec (60000/15000) so that
// a run holds enough repeats for a steady median; at seed 1 an extra,
// untimed run at the golden spec is checked against golden/fig_all.json.
var sizes = map[string]size{
	"figures-full":    {ops: 12000, warmup: 3000},
	"figures-sampled": {ops: 60000, warmup: 15000},
	"cells-memory":    {apps: memoryApps, ops: 300000, warmup: 15000},
	"sweep-service":   {ops: 60000, warmup: 15000},
}

// minRepeats is how many timed repeats a phase makes even past its time
// budget, so that every median has at least three samples.
const minRepeats = 3

// runner is one workload. setup prepares a repeat and is timed as set-up;
// repeat is one timed run of the workload's job; check makes the
// correctness checks that need the whole timed phase, after it. parent is
// the span the call's own spans nest under.
type runner interface {
	setup(b *bench, parent int) error
	repeat(b *bench, parent int) (rep, error)
	check(b *bench, parent int)
}

func newRunner(cfg config) runner {
	switch cfg.workload {
	case "figures-full":
		return newFigures(cfg, false)
	case "figures-sampled":
		return newFigures(cfg, true)
	case "cells-memory":
		return newCells(cfg)
	default:
		return newSweepService(cfg)
	}
}

// rep is one timed repeat's outcome.
type rep struct {
	wall      time.Duration
	simCycles uint64
	allocMB   float64
	gcCycles  uint64
	rssMB     float64
	ops       []float64 // latency of every completed operation, ms
	failed    int       // operations that failed
	digest    string    // hash of every output the repeat produced
	// scale converts the repeat's times to the reference host's quiet
	// speed: probeRefMs over the mean of the probes before and after it.
	scale float64
}

// bench carries one run's configuration and findings.
type bench struct {
	cfg     config
	rep     *report
	spans   *spanLog // nil outside the traced phase
	profile string   // CPU profile path of the traced repeat running now
	probe   *probe
	repeats int // repeats started so far, to name a failed one
	// expectWall is the untraced repeat's median wall time, which sizes a
	// server-side profile window.
	expectWall time.Duration
}

func (b *bench) emit(name string, v float64, unit string, n int) {
	b.rep.Metrics = append(b.rep.Metrics, metric{name, v, unit, n})
}

// gate counts one correctness check, failing it when err is non-nil.
func (b *bench) gate(what string, err error) {
	b.rep.Attempted++
	if err != nil {
		b.fail(what, err)
	}
}

func (b *bench) fail(what string, err error) {
	b.rep.Failed++
	b.rep.Failures = append(b.rep.Failures, fmt.Sprintf("%s: %v", what, err))
}

// run executes one workload and returns its report.
func run(cfg config) *report {
	b := &bench{cfg: cfg, rep: &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.workers,
		Go: runtime.Version(),
	}, probe: newProbe()}
	r := newRunner(cfg)
	budget := time.Duration(cfg.seconds) * time.Second

	if !cfg.traced {
		reps, setups := b.phase(r, budget)
		b.identity(reps)
		r.check(b, 0)
		b.emitEndToEnd(reps, setups)
		return b.rep
	}

	// Traced run: untraced and traced repeats alternate, at least
	// minRepeats pairs, with the calibration probe between every two, so
	// that each pair compares repeats taken close together and scaled to
	// the same host speed; the untraced ones are the baseline of the
	// tracing overhead. Each traced repeat has spans and writes its own CPU
	// profile (sweep-service: the server's, through its -pprof endpoint);
	// the profiles are folded together. The probes run outside them.
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		b.fail("trace dir", err)
		return b.rep
	}
	_, remote := r.(*sweepService)
	spans := newSpanLog()
	var plain, traced []rep
	var profiles []string
	start := time.Now()
	before := b.calibrate()
	for i := 1; ; i++ {
		x, _, err := b.once(r, "")
		if err != nil {
			return b.rep
		}
		mid := b.calibrate()
		x.scale = 2 * probeRefMs / (before + mid)
		plain = append(plain, x)
		b.expectWall = medianDur(plain)

		b.spans = spans
		b.profile = filepath.Join(cfg.traceDir, fmt.Sprintf("%s.cpu.%d.pprof", cfg.workload, i))
		local := b.profile
		if remote {
			local = "" // the sweep-service repeat profiles the server itself
		}
		x, _, err = b.once(r, local)
		b.spans = nil
		if err != nil {
			return b.rep
		}
		before = b.calibrate()
		x.scale = 2 * probeRefMs / (mid + before)
		traced = append(traced, x)
		profiles = append(profiles, b.profile)
		elapsed := time.Since(start)
		if i >= minRepeats && elapsed+elapsed/time.Duration(i) > budget {
			break
		}
	}
	// One span covers every correctness check; reruns that make reference
	// outputs are its "reference" children, so its self time is comparing.
	b.spans = spans
	id := b.spans.start("compare", 0)
	b.identity(append(plain, traced...))
	r.check(b, id)
	b.spans.end(id)
	b.emitLayers(plain, traced, profiles)
	return b.rep
}

// phase runs set-up and a timed repeat back to back until the budget is
// spent: at least minRepeats times, and then again only while the mean pass
// so far still fits in what is left. It runs the calibration probe before
// the first repeat and after each one (calibrate.go), and returns the
// repeats and set-up seconds.
func (b *bench) phase(r runner, budget time.Duration) ([]rep, []float64) {
	var reps []rep
	var setups []float64
	start := time.Now()
	before := b.calibrate()
	for i := 1; ; i++ {
		x, setup, err := b.once(r, "")
		setups = append(setups, setup)
		if err != nil {
			return reps, setups
		}
		after := b.calibrate()
		x.scale = 2 * probeRefMs / (before + after)
		before = after
		reps = append(reps, x)
		elapsed := time.Since(start)
		if i >= minRepeats && elapsed+elapsed/time.Duration(i) > budget {
			return reps, setups
		}
	}
}

// once runs set-up and one timed repeat, taking an in-process CPU profile
// of both into profile unless it is "". It returns the repeat and the
// set-up seconds; a failure is already recorded when it returns an error.
func (b *bench) once(r runner, profile string) (rep, float64, error) {
	b.repeats++
	stop := func() error { return nil }
	if profile != "" {
		var err error
		if stop, err = startProfile(profile); err != nil {
			b.fail("cpu profile", err)
			return rep{}, 0, err
		}
	}
	sid := b.spans.start("setup", 0)
	t0 := time.Now()
	err := r.setup(b, sid)
	setup := time.Since(t0).Seconds()
	b.spans.end(sid)
	if err != nil {
		stop()
		b.fail("setup", err)
		return rep{}, setup, err
	}
	// Collect what set-up left behind (the previous traces) so that each
	// repeat starts from the same heap, and restart the peak-RSS mark so
	// that each repeat reports its own peak.
	runtime.GC()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		stop()
		b.fail("reset peak RSS", err)
		return rep{}, setup, err
	}
	rid := b.spans.start("repeat", 0)
	x, err := r.repeat(b, rid)
	b.spans.end(rid)
	if profile != "" {
		b.gate("cpu profile", stop())
	}
	b.rep.Attempted += len(x.ops) + x.failed
	b.rep.Failed += x.failed
	if err != nil {
		b.fail(fmt.Sprintf("repeat %d", b.repeats), err)
	}
	return x, setup, err
}

// calibrate times the calibration probe and keeps the time in the report.
func (b *bench) calibrate() float64 {
	ms := b.probe.run(b.cfg.workers)
	b.rep.Probes = append(b.rep.Probes, ms)
	return ms
}

// identity checks that every repeat produced byte-identical outputs.
func (b *bench) identity(reps []rep) {
	for i, x := range reps[min(1, len(reps)):] {
		var err error
		if x.digest != reps[0].digest {
			err = fmt.Errorf("outputs differ from repeat 1")
		}
		b.gate(fmt.Sprintf("repeat %d identical", i+2), err)
	}
}

func (b *bench) emitEndToEnd(reps []rep, setups []float64) {
	if len(reps) == 0 {
		return
	}
	// Operation latencies are quantiles within a repeat, then medians over
	// repeats: a repeat's operations differ in size (nine figures, a
	// session's sweeps), so pooling them would put the quantiles on the
	// boundary between two kinds of operation. Every time but set-up's is
	// also scaled, repeat by repeat, to the reference host's quiet speed
	// (calibrate.go); sim_mcps is a rate, so it is divided.
	defs := [4]metricDef{{"wall_s", "s"}, {"sim_mcps", "Mcycles/s"}, {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"}}
	var raw, scaled [4][]float64
	var rss []float64
	for _, x := range reps {
		w := x.wall.Seconds()
		vals := [4]float64{w, float64(x.simCycles) / w / 1e6, quantile(x.ops, 0.5), quantile(x.ops, 0.9)}
		for i, v := range vals {
			raw[i] = append(raw[i], v)
			s := x.scale
			if i == 1 {
				s = 1 / s
			}
			scaled[i] = append(scaled[i], v*s)
		}
		rss = append(rss, x.rssMB)
	}
	b.rep.RepeatWalls, b.rep.Setups = raw[0], setups
	for i, d := range defs {
		b.emit(d.name, median(scaled[i]), d.unit, len(reps))
		b.emit("raw."+d.name, median(raw[i]), d.unit, len(reps))
	}
	b.emit("setup_s", median(setups), "s", len(setups))
	b.emit("peak_rss_mb", median(rss), "MB", len(rss))
	b.emit("host.probe_ms", median(b.rep.Probes), "ms", len(b.rep.Probes))
}

func (b *bench) emitLayers(plain, traced []rep, profiles []string) {
	if len(plain) == 0 || len(traced) == 0 {
		return
	}
	var allocs, gcs []float64
	for _, x := range traced {
		allocs = append(allocs, x.allocMB)
		gcs = append(gcs, float64(x.gcCycles))
	}
	b.emit("count.sim_cycles", float64(traced[0].simCycles), "count", 1)
	b.emit("count.alloc_mb", median(allocs), "MB", len(allocs))
	b.emit("count.gc_cycles", median(gcs), "count", len(gcs))
	// The overhead is the median over pairs of the traced repeat's scaled
	// wall time over its untraced partner's.
	ratios := make([]float64, len(traced))
	for i, x := range traced {
		ratios[i] = x.wall.Seconds() * x.scale / (plain[i].wall.Seconds() * plain[i].scale)
	}
	b.emit("trace.overhead_frac", median(ratios)-1, "frac", len(ratios))

	shares, err := foldProfile(profiles)
	b.gate("cpu profile folds", err)
	if err == nil {
		var sum float64
		for _, p := range layerPackages {
			b.emit("cpu."+p, shares[p], "frac", len(profiles))
			sum += shares[p]
		}
		var bad error
		if math.Abs(sum-1) > 0.01 {
			bad = fmt.Errorf("cpu shares sum to %.4f", sum)
		}
		b.gate("cpu shares sum to 1", bad)
	}
	b.gate("spans nest", b.spans.checkNesting())
	for _, m := range b.spans.selfTimes() {
		b.emit(m.Name, m.Value, m.Unit, m.N)
	}
	if err := writeJSON(filepath.Join(b.cfg.traceDir, b.cfg.workload+".spans.json"), b.spans.spans); err != nil {
		b.fail("write spans", err)
	}
	microReplays(b)
}

// inProcess times fn as one repeat of work done in this process.
func inProcess(fn func() error) (rep, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := sim.SimulatedCycles()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := sim.SimulatedCycles()
	runtime.ReadMemStats(&m1)
	rss, rerr := peakRSSMB(os.Getpid())
	if err == nil {
		err = rerr
	}
	return rep{
		wall:      wall,
		simCycles: c1 - c0,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcCycles:  uint64(m1.NumGC - m0.NumGC),
		rssMB:     rss,
	}, err
}

func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// median and quantile interpolate linearly between order statistics.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func medianDur(reps []rep) time.Duration {
	walls := make([]float64, len(reps))
	for i, x := range reps {
		walls[i] = float64(x.wall)
	}
	return time.Duration(median(walls))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// span is one timed interval the harness recorded around its own calls.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced code paths call it freely.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span under parent (0 = none) and returns its id.
func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: msSince(l.t0), End: -1})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = msSince(l.t0)
	l.mu.Unlock()
}

// checkNesting verifies every span ended and lies inside its parent.
func (l *spanLog) checkNesting() error {
	for _, s := range l.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p := l.spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%.3f, %.3f] outside parent %d (%s) [%.3f, %.3f]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes reports, per span name, the median self time: the span's
// duration minus the part of it its children cover. A name "a.b" is
// reported as span.a_ms.b.
func (l *spanLog) selfTimes() []metric {
	children := map[int][][2]float64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	byName := map[string][]float64{}
	var names []string
	for _, s := range l.spans {
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s.End-s.Start-covered(children[s.ID]))
	}
	var out []metric
	for _, n := range names {
		base, sub, _ := strings.Cut(n, ".")
		name := "span." + base + "_ms"
		if sub != "" {
			name += "." + sub
		}
		out = append(out, metric{name, median(byName[n]), "ms", len(byName[n])})
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, math.Inf(-1)
	for _, x := range iv {
		lo := math.Max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
		}
		end = math.Max(end, x[1])
	}
	return total
}

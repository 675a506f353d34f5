// Package sim is the experiment harness: it builds any of the repository's
// core models over a generated workload, runs a warm-up window followed by
// a measurement window, and collects timing, energy and activity results.
// The per-figure experiment drivers in experiments.go regenerate every
// table and figure of the paper's evaluation.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"casino/internal/bpred"
	"casino/internal/core"
	"casino/internal/energy"
	"casino/internal/eventq"
	"casino/internal/ino"
	"casino/internal/mem"
	"casino/internal/ooo"
	"casino/internal/ptrace"
	"casino/internal/slice"
	"casino/internal/specino"
	"casino/internal/stats"
	"casino/internal/trace"
)

// Model names accepted by Spec.Model.
const (
	ModelInO     = "ino"
	ModelOoO     = "ooo"
	ModelOoONoLQ = "ooo-nolq"
	ModelCASINO  = "casino"
	ModelLSC     = "lsc"
	ModelFreeway = "freeway"
	ModelSpecInO = "specino"
)

// DefaultSpecInO returns the SpecInO[ws,so] limit-study configuration
// (convenience re-export for suite builders).
func DefaultSpecInO(ws, so int) specino.Config { return specino.DefaultConfig(ws, so) }

// Models lists every runnable model name.
func Models() []string {
	return []string{ModelInO, ModelOoO, ModelOoONoLQ, ModelCASINO, ModelLSC, ModelFreeway, ModelSpecInO}
}

// Core is the surface the driver runs every model through; all five
// repository models implement all of it.
//
// The event-driven clock: NextWake returns the earliest cycle >= Now() at
// which the core might make progress — an O(1) consult of the model's
// shared wakeup queue plus its streaming pre-checks, never a scheduler
// scan. FastForward runs one real Cycle() and, if it proved idle, jumps the
// clock toward `to` with exact batched accounting, returning false when
// the cycle changed state and stands as a normal cycle. WakeStats exposes
// the wakeup queue's activity counters for the run manifest, and
// ProgressSignature folds the model's progress counters into one value.
// The driver consults the queue only after a cycle whose signature did not
// move, which is what makes jump attempts almost never bail (see
// DESIGN.md, "Clock & event model"); the property tests compare it across
// an event-driven core and a stepped replica.
//
// Observability: SetPipeTrace installs a pipeline-event recorder (nil
// turns tracing off) and CPIStack exposes the per-cycle stall attribution.
// Recycle returns the model's pooled state at end of run.
type Core interface {
	Cycle()
	Now() int64
	Committed() uint64
	Done() bool

	NextWake() int64
	FastForward(to int64) bool
	WakeStats() eventq.Stats
	ProgressSignature() uint64

	SetPipeTrace(*ptrace.Recorder)
	CPIStack() *ptrace.CPI
	Recycle()
}

// simulatedCycles accumulates the total simulated cycles (including
// fast-forwarded ones) across every Run in the process, letting tools
// report cycles-per-second throughput without threading state through.
var simulatedCycles atomic.Uint64

// SimulatedCycles returns the process-wide total of simulated core cycles.
// It counts only cells actually simulated: a figure cell served from a
// trace's result memo (see runMatrix) adds nothing.
func SimulatedCycles() uint64 { return simulatedCycles.Load() }

// Spec describes one run.
type Spec struct {
	Model    string
	Workload string
	Ops      int // measured instructions
	Warmup   int // instructions before measurement starts
	Seed     int64

	// Optional per-model configuration overrides (nil = Table I default).
	CasinoCfg  *core.Config
	OoOCfg     *ooo.Config
	InOCfg     *ino.Config
	SliceCfg   *slice.Config
	SpecInOCfg *specino.Config
	MemCfg     *mem.Config

	// Reuse a pre-generated trace (takes precedence over Workload/Seed).
	// The trace may be shared with concurrent runs: it is read-only once
	// handed to Run (see the trace package's read-only contract).
	Trace *trace.Trace

	// DisableFastForward forces cycle-by-cycle simulation even for cores
	// that implement the event-driven interface. Stepping every cycle is the
	// reference the event engine is tested against: results must be
	// bit-identical either way.
	DisableFastForward bool

	// TraceSink, when non-nil, receives the run's pipeline events (see the
	// ptrace package) filtered through TraceWindow. An active sink implies
	// DisableFastForward: fast-forward skips provably idle cycles, and a
	// tracing run wants to observe those cycles, not summarize them. Run
	// does not close the sink; the caller owns its lifecycle.
	TraceSink   ptrace.Sink
	TraceWindow ptrace.Window

	// Sampling, when non-nil, switches the run to sampled simulation:
	// short detailed windows alternating with functional-warming gaps (see
	// sampling.go). Strictly opt-in — every nil-Sampling run behaves
	// bit-identically to a build without this feature.
	Sampling *Sampling
}

// Result is the outcome of one measured run.
type Result struct {
	Model        string
	Workload     string
	Instructions uint64
	Cycles       uint64
	IPC          float64

	DynamicPJ float64
	StaticPJ  float64
	TotalPJ   float64
	AreaMM2   float64
	// EnergyPerInst is pJ per committed instruction.
	EnergyPerInst float64
	// PerfPerEnergy is the paper's energy-efficiency metric
	// (performance/energy): IPC per nJ-per-instruction.
	PerfPerEnergy float64

	// Extra is the flattened metrics-registry snapshot: every counter,
	// ratio and histogram summary the model and the energy accountant
	// published for this run (whole-run totals, warm-up included).
	// Histograms appear as <name>.mean / <name>.count pairs.
	Extra map[string]float64

	// EnergyParts and AreaParts break the totals down per structure /
	// fixed block (the data behind the paper's stacked bars in Fig. 9).
	EnergyParts map[string]float64
	AreaParts   map[string]float64

	// Sampled carries the sampled-mode window statistics and confidence
	// interval; nil for full-fidelity runs.
	Sampled *SampledStats `json:"Sampled,omitempty"`
}

// DefaultOps and DefaultWarmup scale the paper's 300M-SimPoint regions to
// laptop runtimes; the reported shapes are stable above ~50k measured ops.
const (
	DefaultOps    = 60000
	DefaultWarmup = 15000
)

// withDefaults applies Run's defaulting: non-positive Ops means
// DefaultOps, and a negative Warmup means none.
func (s Spec) withDefaults() Spec {
	if s.Ops <= 0 {
		s.Ops = DefaultOps
	}
	if s.Warmup < 0 {
		s.Warmup = 0
	}
	return s
}

// memConfig is the memory hierarchy the spec runs on (nil = Table I).
func (s Spec) memConfig() mem.Config {
	if s.MemCfg != nil {
		return *s.MemCfg
	}
	return mem.DefaultConfig()
}

// modelConfig is a spec's resolved model configuration. The field of the
// spec's model holds the configuration the run builds, which is the Table
// I default when the spec's override is nil; every other field is zero.
// build constructs the model from it and runMatrix's result memo keys on
// it, so a nil override and an explicit default are one machine.
type modelConfig struct {
	casino  core.Config
	ooo     ooo.Config
	ino     ino.Config
	slice   slice.Config
	specino specino.Config
}

// orDefault returns *p, or def when p is nil.
func orDefault[T any](p *T, def T) T {
	if p != nil {
		return *p
	}
	return def
}

// modelConfig resolves the configuration of the spec's model and checks it
// with the model's Validate, so a configuration the model cannot be built
// on is an error here rather than a panic or a stall in its constructor.
func (s Spec) modelConfig() (modelConfig, error) {
	var mc modelConfig
	var err error
	switch s.Model {
	case ModelInO:
		mc.ino = orDefault(s.InOCfg, ino.DefaultConfig())
		err = mc.ino.Validate()
	case ModelOoO, ModelOoONoLQ:
		mc.ooo = orDefault(s.OoOCfg, ooo.DefaultConfig())
		if s.Model == ModelOoONoLQ {
			mc.ooo.NoLQ = true
		}
		err = mc.ooo.Validate()
	case ModelCASINO:
		mc.casino = orDefault(s.CasinoCfg, core.DefaultConfig())
		err = mc.casino.Validate()
	case ModelLSC:
		mc.slice = orDefault(s.SliceCfg, slice.DefaultConfig(slice.LSC))
		err = mc.slice.Validate()
	case ModelFreeway:
		mc.slice = orDefault(s.SliceCfg, slice.DefaultConfig(slice.Freeway))
		err = mc.slice.Validate()
	case ModelSpecInO:
		mc.specino = orDefault(s.SpecInOCfg, specino.DefaultConfig(2, 1))
		err = mc.specino.Validate()
	default:
		return modelConfig{}, fmt.Errorf("sim: unknown model %q (known: %v)", s.Model, Models())
	}
	if err != nil {
		return modelConfig{}, fmt.Errorf("sim: model %q: %w", s.Model, err)
	}
	return mc, nil
}

// Run executes one spec and returns its result.
func Run(s Spec) (Result, error) {
	s = s.withDefaults()
	if s.Sampling != nil {
		return runSampled(s)
	}
	r, err := newRunner(s)
	if err != nil {
		return Result{}, err
	}
	target := min(uint64(s.Warmup+s.Ops), uint64(r.tr.Len()))
	warm := min(uint64(s.Warmup), target)
	w, err := r.window(0, nil, warm, target)
	if err != nil {
		return Result{}, err
	}
	c, acct := w.c, r.acct
	cycles := uint64(c.Now() - w.cyc0)
	instrs := c.Committed() - warm
	dyn := acct.DynamicEnergy() - w.dyn0
	static := acct.StaticEnergyOver(cycles)
	reg := stats.NewRegistry()
	w.publish(reg)
	acct.PublishMetrics(reg)
	reg.Counter("ff.jumps", w.ffJumps)
	reg.Counter("ff.skipped_cycles", w.ffSkipped)
	reg.SetRatio("ff.coverage", float64(w.ffSkipped), float64(c.Now()))
	if r.fastForward() {
		es := c.WakeStats()
		reg.Counter("evq.wakeups", es.Wakeups)
		reg.Counter("evq.coalesced", es.Coalesced)
		reg.Counter("evq.batched_cycles", w.ffSkipped)
		reg.Counter("evq.heap_max", uint64(es.HeapMax))
	}
	res := Result{
		Model:        s.Model,
		Workload:     r.tr.Name,
		Instructions: instrs,
		Cycles:       cycles,
		AreaMM2:      acct.Area(),
		Extra:        reg.Flatten(),
		EnergyParts:  acct.EnergyBreakdown(),
		AreaParts:    acct.AreaBreakdown(),
	}
	if cycles > 0 {
		res.IPC = float64(instrs) / float64(cycles)
	}
	res.setEnergy(dyn, static, instrs)
	// Everything the result needs has been snapshotted: recycle the run's
	// pooled state so sweep shards and figure matrices stop re-allocating
	// (and re-GCing) cache arrays and predictor tables per cell.
	c.Recycle()
	putHierarchy(r.hier)
	return res, nil
}

// setEnergy fills the energy totals and the per-instruction ratios from a
// run's dynamic and static energy over instrs committed instructions. IPC
// must already be set.
func (res *Result) setEnergy(dyn, static float64, instrs uint64) {
	res.DynamicPJ, res.StaticPJ, res.TotalPJ = dyn, static, dyn+static
	if instrs > 0 {
		res.EnergyPerInst = res.TotalPJ / float64(instrs)
	}
	if res.EnergyPerInst > 0 {
		res.PerfPerEnergy = res.IPC / (res.EnergyPerInst / 1000) // IPC per nJ/inst
	}
}

// runner holds what every detailed window of one run shares: the spec,
// its resolved trace, the memory hierarchy and the energy accountant. A
// full-fidelity run is one window over the whole trace; a sampled run
// opens one window per sampling period (sampling.go).
type runner struct {
	s    Spec
	tr   *trace.Trace
	hier *mem.Hierarchy
	acct *energy.Accountant
}

// newRunner resolves the spec's trace and takes a memory hierarchy from
// the pool. Without an explicit trace it resolves through the
// process-wide cache: repeated runs of the same (workload, length, seed) —
// every figure sweep — share one generated trace. Traces are read-only
// once published (see the trace package contract), so sharing across
// goroutines is safe.
func newRunner(s Spec) (*runner, error) {
	tr := s.Trace
	if tr == nil {
		var err error
		if tr, err = SharedTrace(s.Workload, s.Warmup+s.Ops, s.Seed); err != nil {
			return nil, err
		}
	}
	return &runner{s: s, tr: tr, hier: getHierarchy(s.memConfig()), acct: energy.NewAccountant()}, nil
}

// fastForward reports whether the driver may jump idle cycles: not when
// the spec asks for stepping, and not when tracing, which wants to observe
// the idle cycles rather than summarize them.
func (r *runner) fastForward() bool {
	return !r.s.DisableFastForward && r.s.TraceSink == nil
}

// window is one driven detailed window: the model, the publisher of its
// metrics, its state at the measurement snapshot, and its fast-forward
// accounting.
type window struct {
	c       Core
	publish func(*stats.Registry)

	cyc0    int64
	dyn0    float64
	commit0 uint64
	cpi0    [ptrace.NumBuckets]uint64

	ffJumps, ffSkipped uint64
}

// window builds the model at trace position start with an injected
// predictor (nil = fresh) and drives it until target micro-ops have
// committed, snapshotting the measurement start once warm have. It checks
// the cycle cap and the CPI-stack invariant — every simulated cycle,
// fast-forwarded ones included, attributed to exactly one bucket — and
// counts the window's cycles into SimulatedCycles.
func (r *runner) window(start int, pred *bpred.Predictor, warm, target uint64) (*window, error) {
	c, publish, err := build(r.s, r.tr, start, pred, r.hier, r.acct)
	if err != nil {
		return nil, err
	}
	if r.s.TraceSink != nil {
		c.SetPipeTrace(ptrace.NewRecorder(r.s.TraceSink, r.s.TraceWindow))
	}
	w := &window{c: c, publish: publish}
	w.ffJumps, w.ffSkipped = drive(c, r.fastForward(), warm, target, func() {
		w.cyc0 = c.Now()
		w.dyn0 = r.acct.DynamicEnergy()
		w.commit0 = c.Committed()
		w.cpi0 = c.CPIStack().Counts
	})
	if c.Committed() < target && !c.Done() {
		return nil, fmt.Errorf("sim: %s exceeded cycle cap at %d committed", r.where(start), c.Committed())
	}
	if err := c.CPIStack().Check(uint64(c.Now())); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", r.where(start), err)
	}
	simulatedCycles.Add(uint64(c.Now()))
	return w, nil
}

// where names the window at trace position start in errors.
func (r *runner) where(start int) string {
	if r.s.Sampling != nil {
		return fmt.Sprintf("%s/%s sampled window at op %d", r.s.Model, r.tr.Name, start)
	}
	return r.s.Model + "/" + r.tr.Name
}

// cycleCap bounds any single drive loop: a run (or sampled window) that has
// not reached its commit target by then is reported as an error, not spun
// forever.
const cycleCap = 400_000_000

// drive is the shared clock loop: it steps c until target micro-ops have
// committed (or the core drains, or the cycle cap is hit), calling snap
// exactly once when the committed count first reaches warm — the
// measurement-window snapshot. It returns the fast-forward accounting.
// Every window — the full-fidelity Run's one and each sampled detailed
// window — uses it, so the event-driven gating below behaves identically
// in both modes. ff false steps every cycle.
func drive(c Core, ff bool, warm, target uint64, snap func()) (ffJumps, ffSkipped uint64) {
	snapped := warm == 0
	if snapped {
		snap()
	}
	var lastSig uint64
	sigValid := false
	lastCommitted := ^uint64(0) // != Committed(): never consult before the first cycle
	for c.Now() < cycleCap && !c.Done() && c.Committed() < target {
		if !snapped && c.Committed() >= warm {
			snap()
			snapped = true
		}
		// Only consult the wakeup queue after a cycle whose progress
		// signature did not move — while work flows, per-cycle stepping is
		// the common case and even an O(1) consult would be pure overhead.
		// The gate is two-level: the commit counter (one load) filters the
		// busy stretches, and the full signature is computed only across
		// commit-free cycles. After a fully idle cycle, every state change
		// the next cycles could make is announced on the queue (or caught by
		// NextWake's streaming pre-checks), so when the next wake lies
		// beyond the next cycle, FastForward runs that one cycle itself and
		// jumps across the proven-idle gap — the loop must not also step it.
		if ff {
			if c.Committed() != lastCommitted {
				lastCommitted = c.Committed()
				sigValid = false
			} else if sig := c.ProgressSignature(); !sigValid || sig != lastSig {
				lastSig, sigValid = sig, true
			} else if to := c.NextWake(); to > c.Now()+1 {
				if to > cycleCap {
					to = cycleCap
				}
				// On a bail the embedded cycle changed the signature;
				// lastSig keeps its pre-cycle value, so the next iteration's
				// comparison fails once and steps normally.
				before := c.Now()
				if c.FastForward(to) {
					if skipped := uint64(c.Now() - before - 1); skipped > 0 {
						ffJumps++
						ffSkipped += skipped
					}
				}
				continue
			}
		}
		c.Cycle()
	}
	if !snapped {
		snap()
	}
	return ffJumps, ffSkipped
}

// hierPool recycles memory hierarchies across runs. Hierarchy.Reset
// restores exactly the fresh-constructed state (covered by the mem
// package's Reset tests and this package's golden gating), so a recycled
// hierarchy is indistinguishable from a new one. Specs with a
// non-default memory configuration simply miss and rebuild.
var hierPool sync.Pool

func getHierarchy(cfg mem.Config) *mem.Hierarchy {
	if v := hierPool.Get(); v != nil {
		h := v.(*mem.Hierarchy)
		if h.Config() == cfg {
			h.Reset()
			return h
		}
	}
	return mem.NewHierarchy(cfg)
}

func putHierarchy(h *mem.Hierarchy) { hierPool.Put(h) }

// build constructs the spec's model at trace position start with an
// injected predictor (nil = fresh) and returns it plus the publisher that
// snapshots its counters and histograms into a metrics registry after the
// run. The sampled driver opens detailed windows mid-trace with the
// shared warmed predictor; full-fidelity runs pass (0, nil). Legacy LQ
// alias metrics are kept for the disambiguation figures: CASINO's and
// OoO's load-queue activity lives in the energy accountant (the structure
// only exists in some configurations), so build bridges it under the
// historical lqReads/lqWrites/lqSearches names.
func build(s Spec, tr *trace.Trace, start int, pred *bpred.Predictor, hier *mem.Hierarchy, acct *energy.Accountant) (Core, func(*stats.Registry), error) {
	mc, err := s.modelConfig()
	if err != nil {
		return nil, nil, err
	}
	lqAliases := func(r *stats.Registry) {
		r.Counter("lqReads", acct.CountByName("LQ", energy.Read))
		r.Counter("lqWrites", acct.CountByName("LQ", energy.Write))
		r.Counter("lqSearches", acct.CountByName("LQ", energy.Search))
	}
	switch s.Model {
	case ModelInO:
		c := ino.NewAt(mc.ino, tr, start, pred, hier, acct)
		return c, c.PublishMetrics, nil
	case ModelOoO, ModelOoONoLQ:
		c := ooo.NewAt(mc.ooo, tr, start, pred, hier, acct)
		return c, func(r *stats.Registry) {
			c.PublishMetrics(r)
			lqAliases(r)
			r.Counter("sqSearches", acct.CountByName("SQ", energy.Search))
		}, nil
	case ModelCASINO:
		c := core.NewAt(mc.casino, tr, start, pred, hier, acct)
		return c, func(r *stats.Registry) {
			c.PublishMetrics(r)
			lqAliases(r)
		}, nil
	case ModelLSC, ModelFreeway:
		c := slice.NewAt(mc.slice, tr, start, pred, hier, acct)
		return c, c.PublishMetrics, nil
	case ModelSpecInO:
		c := specino.NewAt(mc.specino, tr, start, pred, hier, acct)
		return c, c.PublishMetrics, nil
	}
	panic("sim: modelConfig accepted unknown model " + s.Model)
}

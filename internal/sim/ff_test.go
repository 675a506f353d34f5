package sim

import (
	"testing"

	"casino/internal/energy"
	"casino/internal/mem"
)

// TestFastForwardSkipsCycles asserts the acceptance criterion of the
// event-horizon optimisation: on the default 60k-op configuration every
// model spends a measurable share of its cycles fully stalled, and the
// driver jumps them instead of stepping.
func TestFastForwardSkipsCycles(t *testing.T) {
	for _, m := range Models() {
		r, err := Run(Spec{Model: m, Workload: "libquantum", Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if r.Extra["ff.jumps"] <= 0 || r.Extra["ff.skipped_cycles"] <= 0 {
			t.Errorf("%s: no fast-forward activity (jumps=%v skipped=%v)",
				m, r.Extra["ff.jumps"], r.Extra["ff.skipped_cycles"])
		}
		if cov := r.Extra["ff.coverage"]; cov <= 0 || cov >= 1 {
			t.Errorf("%s: implausible ff.coverage %v", m, cov)
		}
	}
}

// TestFastForwardDeterminism runs each model twice on a load-miss-heavy
// workload — once with event-horizon jumps, once stepping every cycle —
// and requires every published metric (timing, energy, occupancy
// histograms, stall diagnostics) to be bit-identical. Fast-forwarding is
// an execution strategy, never a model change.
func TestFastForwardDeterminism(t *testing.T) {
	for _, m := range Models() {
		on := checkEngineVsStep(t, Spec{Model: m, Workload: "milc", Ops: 12000, Warmup: 3000, Seed: 7})
		if on.Extra["ff.skipped_cycles"] <= 0 {
			t.Errorf("%s: fast-forward never fired; determinism check is vacuous", m)
		}
	}
}

// TestFastForwardAllocatesNothing offers every warm model a jump on each of
// 500 cycles. An offer runs one real cycle and, when that cycle was idle,
// the shell's replay; neither may allocate beyond the cycle kernel's
// residue (cache and MSHR map growth). The signature snapshots FastForward
// compares are the trap: one that escaped to the heap would cost two
// allocations per offer.
func TestFastForwardAllocatesNothing(t *testing.T) {
	for _, m := range Models() {
		spec := Spec{Model: m, Workload: "gcc", Ops: 60000, Seed: 1}
		tr, err := SharedTrace(spec.Workload, spec.Ops, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := build(spec, tr, 0, nil, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for i := 0; i < 20_000 && !c.Done(); i++ {
			c.Cycle()
		}
		const offers = 500
		avg := testing.AllocsPerRun(5, func() {
			for i := 0; i < offers; i++ {
				c.FastForward(c.Now() + 1000)
			}
		})
		if c.Done() {
			t.Fatalf("%s: trace drained during measurement; lengthen the trace", m)
		}
		const ceiling = 0.05 // allocations per offer
		if perOffer := avg / offers; perOffer > ceiling {
			t.Errorf("%s: FastForward allocates %.3f times per offer, ceiling %.2f", m, perOffer, ceiling)
		}
	}
}

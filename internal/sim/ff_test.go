package sim

import "testing"

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

package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"casino/internal/energy"
	"casino/internal/mem"
	"casino/internal/workload"
)

// metaMetric reports whether a metric describes the execution strategy
// (jump accounting, wakeup-queue activity) rather than the modeled machine.
// Only these may differ between event-driven and cycle-by-cycle runs.
func metaMetric(k string) bool {
	return strings.HasPrefix(k, "ff.") || strings.HasPrefix(k, "evq.")
}

// checkBitIdentical fails t unless got and ref agree bit for bit on the
// headline results and on every published metric that describes the
// modeled machine. It checks both directions, so a metric published by
// only one of the two runs is a divergence too. what names the run pair in
// failure messages.
func checkBitIdentical(t *testing.T, what string, got, ref Result) {
	t.Helper()
	if got.Cycles != ref.Cycles || got.Instructions != ref.Instructions ||
		got.IPC != ref.IPC || got.DynamicPJ != ref.DynamicPJ || got.StaticPJ != ref.StaticPJ {
		t.Errorf("%s: headline results diverge: cycles %d vs %d, IPC %v vs %v, pJ %v+%v vs %v+%v",
			what, got.Cycles, ref.Cycles, got.IPC, ref.IPC,
			got.DynamicPJ, got.StaticPJ, ref.DynamicPJ, ref.StaticPJ)
	}
	for k, want := range ref.Extra {
		if metaMetric(k) {
			continue
		}
		v, ok := got.Extra[k]
		if !ok {
			t.Errorf("%s: metric %s published only by the reference run", what, k)
		} else if v != want && !(math.IsNaN(v) && math.IsNaN(want)) {
			t.Errorf("%s: metric %s: %v, reference %v", what, k, v, want)
		}
	}
	for k := range got.Extra {
		if _, ok := ref.Extra[k]; !ok && !metaMetric(k) {
			t.Errorf("%s: metric %s missing from the reference run", what, k)
		}
	}
}

// checkEngineVsStep runs spec twice, event-driven and with
// DisableFastForward (cycle-by-cycle stepping, the reference), requires the
// stepped run never to jump and the two runs to be bit-identical, and
// returns the event-driven result.
func checkEngineVsStep(t *testing.T, spec Spec) Result {
	t.Helper()
	what := fmt.Sprintf("%s/%s seed=%d ops=%d", spec.Model, spec.Workload, spec.Seed, spec.Ops)
	on, err := Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	spec.DisableFastForward = true
	off, err := Run(spec)
	if err != nil {
		t.Fatalf("%s (step): %v", what, err)
	}
	if off.Extra["ff.jumps"] != 0 || off.Extra["ff.skipped_cycles"] != 0 {
		t.Errorf("%s: DisableFastForward still jumped", what)
	}
	checkBitIdentical(t, what+" (event vs step)", on, off)
	return on
}

// TestEventEngineCrossValidation is the randomized generalisation of
// TestFastForwardDeterminism: every model, on randomly drawn short
// workloads/seeds/lengths, must produce bit-identical results whether the
// event-driven engine or plain cycle-by-cycle stepping drives the clock.
// The workload draw is seeded, so failures reproduce.
func TestEventEngineCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := workload.Names()
	for _, m := range Models() {
		for trial := 0; trial < 3; trial++ {
			ops := 2000 + rng.Intn(4000)
			checkEngineVsStep(t, Spec{
				Model:    m,
				Workload: names[rng.Intn(len(names))],
				Ops:      ops,
				Warmup:   ops / 4,
				Seed:     rng.Int63n(1 << 30),
			})
		}
	}
}

// buildPair constructs two independent, identically-configured cores over
// one shared (read-only) trace.
func buildPair(t *testing.T, spec Spec) (a, b Core) {
	t.Helper()
	tr, err := SharedTrace(spec.Workload, spec.Warmup+spec.Ops, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() Core {
		c, _, err := build(spec, tr, 0, nil, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
		if err != nil {
			t.Fatalf("%s: %v", spec.Model, err)
		}
		return c
	}
	return mk(), mk()
}

// TestEventEngineJumpEquivalence replays the driver's event-driven protocol
// on core A while stepping an identical replica B cycle-by-cycle, and
// compares the folded progress signatures after every jump and every
// stepped cycle. A jump that skipped a non-idle cycle diverges the pair at
// the very next checkpoint, localizing the failure to one jump — a much
// sharper probe than end-of-run manifest comparison. It is the registration
// property seen from outside: a wakeup registered late lets A jump across
// a cycle in which the stepped B changed observable state.
func TestEventEngineJumpEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	names := workload.Names()
	for _, m := range Models() {
		wl := names[rng.Intn(len(names))]
		spec := Spec{Model: m, Workload: wl, Ops: 6000, Warmup: 0, Seed: rng.Int63n(1 << 30)}
		a, b := buildPair(t, spec)
		target := uint64(spec.Ops)
		var jumps uint64
		lastSig := ^a.ProgressSignature()
		const cap = 4_000_000
		for a.Now() < cap && !a.Done() && a.Committed() < target {
			if sig := a.ProgressSignature(); sig == lastSig {
				if to := a.NextWake(); to > a.Now()+1 {
					before := a.Now()
					a.FastForward(to)
					if a.Now() > before+1 {
						jumps++
					}
					for b.Now() < a.Now() {
						b.Cycle()
					}
					if a.ProgressSignature() != b.ProgressSignature() || a.Committed() != b.Committed() {
						t.Fatalf("%s/%s: replica diverged after jump %d -> %d (skipped %d)",
							m, wl, before, a.Now(), a.Now()-before-1)
					}
					continue
				}
			} else {
				lastSig = sig
			}
			a.Cycle()
			b.Cycle()
			if a.ProgressSignature() != b.ProgressSignature() {
				t.Fatalf("%s/%s: replica diverged at cycle %d", m, wl, a.Now())
			}
		}
		if a.Committed() != b.Committed() {
			t.Errorf("%s/%s: final commit counts diverge: %d vs %d", m, wl, a.Committed(), b.Committed())
		}
		if jumps == 0 {
			t.Errorf("%s/%s: event engine never jumped; property check is vacuous", m, wl)
		}
	}
}

// TestFastForwardBailsOnBusyCycle drops the driver's gate: it offers every
// model a 1000-cycle jump on every cycle while an identical replica steps,
// so most offers land on cycles that do work. Such an offer must bail —
// its embedded cycle stands as one normal cycle and nothing is skipped —
// and an idle one may jump only as far as the stepped replica stays
// identical. Signatures and commit counts must match after every offer. A
// FastForward that skipped its signature check would jump across busy
// cycles and diverge the pair at once.
func TestFastForwardBailsOnBusyCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := workload.Names()
	for _, m := range Models() {
		wl := names[rng.Intn(len(names))]
		spec := Spec{Model: m, Workload: wl, Ops: 6000, Warmup: 0, Seed: rng.Int63n(1 << 30)}
		a, b := buildPair(t, spec)
		var bails, jumps uint64
		const cap = 4_000_000
		for a.Now() < cap && !a.Done() && a.Committed() < uint64(spec.Ops) {
			before := a.Now()
			if !a.FastForward(before + 1000) {
				bails++
				if a.Now() != before+1 {
					t.Fatalf("%s/%s: a bail at cycle %d advanced the clock to %d", m, wl, before, a.Now())
				}
			} else if a.Now() > before+1 {
				jumps++
			}
			for b.Now() < a.Now() {
				b.Cycle()
			}
			if a.ProgressSignature() != b.ProgressSignature() || a.Committed() != b.Committed() {
				t.Fatalf("%s/%s: replica diverged after the offer at cycle %d (now %d)", m, wl, before, a.Now())
			}
		}
		if bails == 0 || jumps == 0 {
			t.Errorf("%s/%s: %d bails and %d jumps; both paths must run", m, wl, bails, jumps)
		}
		t.Logf("%s/%s: %d bails, %d jumps", m, wl, bails, jumps)
	}
}

package casino

// Architectural invariant across all core models: instructions commit
// exactly once each, in program order (sequence numbers 0,1,2,...), no
// matter how speculatively the model issued them. The check observes the
// commit events every model publishes on the pipeline-event bus.

import (
	"testing"

	"casino/internal/core"
	"casino/internal/energy"
	"casino/internal/ino"
	"casino/internal/mem"
	"casino/internal/ooo"
	"casino/internal/ptrace"
	"casino/internal/slice"
	"casino/internal/specino"
	"casino/internal/trace"
	"casino/internal/workload"
)

type commitWatch struct {
	t    *testing.T
	name string
	next uint64
}

func (cw *commitWatch) recorder() *ptrace.Recorder {
	return ptrace.NewRecorder(ptrace.SinkFunc(func(e ptrace.Event) {
		if e.Kind != ptrace.KindCommit {
			return
		}
		if e.Seq != cw.next {
			cw.t.Fatalf("%s: commit order violated: got %d, want %d", cw.name, e.Seq, cw.next)
		}
		cw.next++
	}), ptrace.Window{})
}

func TestCommitOrderAllCores(t *testing.T) {
	p, _ := workload.ByName("h264ref") // aliasing + violations stress recovery paths
	tr := workload.Generate(p, 12000, 1)

	type stepper interface {
		Cycle()
		Done() bool
		SetPipeTrace(*ptrace.Recorder)
	}
	hier := func() *mem.Hierarchy { return mem.NewHierarchy(mem.DefaultConfig()) }
	oooNoLQ := ooo.DefaultConfig()
	oooNoLQ.NoLQ = true
	cases := []struct {
		name  string
		build func(tr *trace.Trace) stepper
	}{
		{"ino", func(tr *trace.Trace) stepper {
			return ino.New(ino.DefaultConfig(), tr, hier(), energy.NewAccountant())
		}},
		{"ooo", func(tr *trace.Trace) stepper {
			return ooo.New(ooo.DefaultConfig(), tr, hier(), energy.NewAccountant())
		}},
		{"ooo-nolq", func(tr *trace.Trace) stepper {
			return ooo.New(oooNoLQ, tr, hier(), energy.NewAccountant())
		}},
		{"casino", func(tr *trace.Trace) stepper {
			return core.New(core.DefaultConfig(), tr, hier(), energy.NewAccountant())
		}},
		{"lsc", func(tr *trace.Trace) stepper {
			return slice.New(slice.DefaultConfig(slice.LSC), tr, hier(), energy.NewAccountant())
		}},
		{"freeway", func(tr *trace.Trace) stepper {
			return slice.New(slice.DefaultConfig(slice.Freeway), tr, hier(), energy.NewAccountant())
		}},
		{"specino", func(tr *trace.Trace) stepper {
			return specino.New(specino.DefaultConfig(2, 1), tr, hier(), energy.NewAccountant())
		}},
	}
	for _, tc := range cases {
		cw := &commitWatch{t: t, name: tc.name}
		c := tc.build(tr)
		c.SetPipeTrace(cw.recorder())
		for i := 0; i < 100_000_000 && !c.Done(); i++ {
			c.Cycle()
		}
		if !c.Done() {
			t.Fatalf("%s livelocked", tc.name)
		}
		if cw.next != uint64(tr.Len()) {
			t.Errorf("%s: committed %d of %d", tc.name, cw.next, tr.Len())
		}
	}
}

func TestResultBreakdownsPopulated(t *testing.T) {
	res, err := Run(Spec{Model: ModelCASINO, Workload: "gcc", Ops: 4000, Warmup: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EnergyParts) == 0 || len(res.AreaParts) == 0 {
		t.Fatal("breakdowns missing")
	}
	for _, key := range []string{"S-IQ", "IQ", "SQ", "PRF", "ROB", "FUs", "Leakage"} {
		if _, ok := res.EnergyParts[key]; !ok {
			t.Errorf("energy breakdown missing %q", key)
		}
	}
	var sum float64
	for _, v := range res.AreaParts {
		sum += v
	}
	if diff := sum - res.AreaMM2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("area parts sum %v != total %v", sum, res.AreaMM2)
	}
}

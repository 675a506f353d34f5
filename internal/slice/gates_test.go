package slice

import (
	"slices"
	"testing"

	"casino/internal/energy"
	"casino/internal/mem"
	"casino/internal/stats"
	"casino/internal/trace"
	"casino/internal/workload"
)

// askEveryGate calls the issue check on every queued entry, dispatch's
// steering on the next op, and the CPI classifier, discarding the answers.
func (c *Core) askEveryGate() {
	for _, q := range [...]*entRing{&c.aq, &c.bq, &c.yq} {
		for i := 0; i < q.len(); i++ {
			e := q.at(i)
			c.ready(e, c.Clock)
		}
	}
	if op := c.FE.Peek(0); op != nil {
		c.steer(op)
	}
	c.classifyCycle(c.Clock, c.Commits)
}

// acctCounts appends every energy-accountant count to buf[:0].
func acctCounts(a *energy.Accountant, buf []uint64) []uint64 {
	buf = buf[:0]
	for h := range a.Structures() {
		for _, k := range [...]energy.EventKind{energy.Read, energy.Write, energy.Search} {
			buf = append(buf, a.Count(h, k))
		}
	}
	return append(buf, a.IntOps, a.FPOps, a.AGUOps, a.Frontend, a.BpredOps, a.L1Access, a.Cycles)
}

// gateRun steps a core over tr cycle by cycle and returns its final
// metrics. With ask set it calls askEveryGate before every cycle and fails
// the test if that moves any accountant count.
func gateRun(t *testing.T, cfg Config, tr *trace.Trace, ask bool) map[string]float64 {
	t.Helper()
	acct := energy.NewAccountant()
	c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), acct)
	var before, after []uint64
	for i := 0; i < 10_000_000 && !c.Done(); i++ {
		if ask {
			before = acctCounts(acct, before)
			c.askEveryGate()
			if after = acctCounts(acct, after); !slices.Equal(before, after) {
				t.Fatalf("cycle %d: asking the scheduling gates moved accountant counts %v to %v", c.Clock, before, after)
			}
		}
		c.Cycle()
	}
	if !c.Done() {
		t.Fatalf("livelock: committed %d of %d", c.Committed(), tr.Len())
	}
	r := stats.NewRegistry()
	c.PublishMetrics(r)
	acct.PublishMetrics(r)
	r.Counter("cycles", uint64(c.Now()))
	r.Counter("committed", c.Committed())
	return r.Flatten()
}

// TestSchedulingGatesBillNothing holds the issue check and the steering to
// their contract: issueQueue and dispatch bill the SCB and IST reads, so
// asking the checks — as the CPI classifier and NextWake do — bills
// nothing and leaves the run bit-identical.
func TestSchedulingGatesBillNothing(t *testing.T) {
	tinyFreeway := DefaultConfig(Freeway)
	tinyFreeway.BQSize, tinyFreeway.YQSize = 2, 2
	for _, tc := range []struct {
		name string
		cfg  Config
		app  string
	}{
		{"LSC/mcf", DefaultConfig(LSC), "mcf"},
		{"LSC/h264ref", DefaultConfig(LSC), "h264ref"},
		{"Freeway/milc", DefaultConfig(Freeway), "milc"},
		{"Freeway-2-entry-BY/gcc", tinyFreeway, "gcc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := workload.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			tr := workload.Generate(p, 3000, 1)
			plain := gateRun(t, tc.cfg, tr, false)
			asked := gateRun(t, tc.cfg, tr, true)
			for k, v := range plain {
				if asked[k] != v {
					t.Errorf("%s = %v after asking the gates every cycle, %v without", k, asked[k], v)
				}
			}
			if len(asked) != len(plain) {
				t.Errorf("%d metrics after asking the gates every cycle, %d without", len(asked), len(plain))
			}
		})
	}
}

package core

import (
	"slices"
	"testing"

	"casino/internal/energy"
	"casino/internal/mem"
	"casino/internal/stats"
	"casino/internal/trace"
	"casino/internal/workload"
)

// askEveryGate calls each scheduling predicate on every queued entry and
// runs the CPI classifier, discarding the answers.
func (c *Core) askEveryGate() {
	last := len(c.queues) - 1
	for qi := range c.queues {
		q := &c.queues[qi]
		for pos := 0; pos < q.len(); pos++ {
			e := q.at(pos)
			if qi == last {
				c.iqReady(e, c.Clock)
			} else {
				c.siqReady(qi, e, c.Clock)
				c.exitResourcesOK(qi, e, pos)
				c.passResourcesOK(qi, e)
			}
			c.missingResource(e)
		}
	}
	c.classifyCycle(c.Clock, c.Commits, c.Flushes)
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

// TestSchedulingGatesBillNothing holds the scheduling predicates to their
// contract: the scheduler bills the RAT and scoreboard reads they report,
// so asking them — as the CPI classifier does every cycle — bills nothing
// and leaves the run bit-identical.
func TestSchedulingGatesBillNothing(t *testing.T) {
	conv := DefaultConfig()
	conv.Renaming = RenameConventional
	agi := DefaultConfig()
	agi.Disambig = DisambigAGIOrder
	fullLQ := DefaultConfig()
	fullLQ.Disambig = DisambigFullLQ
	for _, tc := range []struct {
		name string
		cfg  Config
		app  string
	}{
		{"default/mcf", DefaultConfig(), "mcf"},
		{"default/h264ref", DefaultConfig(), "h264ref"},
		{"conventional/gcc", conv, "gcc"},
		{"agi/milc", agi, "milc"},
		{"fullLQ/soplex", fullLQ, "soplex"},
		{"4-wide/libquantum", WideConfig(4), "libquantum"},
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

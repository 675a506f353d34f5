package sim

import (
	"reflect"
	"sync"
	"testing"

	"casino/internal/core"
	"casino/internal/manifest"
	"casino/internal/ooo"
	"casino/internal/ptrace"
)

// memoOpts keeps the figure-level memo tests small: two apps, short runs.
func memoOpts(seed int64) Options {
	return Options{Apps: []string{"gcc", "mcf"}, Ops: 1500, Warmup: 500, Seed: seed, Workers: 2}
}

func buildFigure(t *testing.T, fig string, o Options) *manifest.Manifest {
	t.Helper()
	m, err := BuildManifest(fig, o)
	if err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	return m
}

// bitDiffs lists the metrics (and spec fields) in which b differs from a
// at all.
func bitDiffs(a, b *manifest.Manifest) []manifest.Diff {
	return manifest.Compare(a, b, manifest.CompareOptions{Default: manifest.Tolerance{Abs: 1e-300}})
}

// A figure's metrics do not depend on which of its cells earlier figures
// already simulated: each manifest figure reports bit-identical metrics on
// a fresh cache and after every other figure has run on the same traces.
func TestFigureMetricsIndependentOfMemo(t *testing.T) {
	o := memoOpts(5)
	figs := ManifestFigures()
	for _, f := range figs {
		ResetSharedTraces()
		fresh := buildFigure(t, f, o)
		ResetSharedTraces()
		for _, g := range figs {
			if g != f {
				buildFigure(t, g, o)
			}
		}
		if d := bitDiffs(fresh, buildFigure(t, f, o)); len(d) > 0 {
			t.Errorf("%s: %d metrics differ after the other figures ran, e.g. %v", f, len(d), d[0])
		}
	}
	ResetSharedTraces()
}

// The §VI-B statistics run default CASINO and SpecInO[2,1], which Figs. 2
// and 6 already ran, so after them (and on any re-run) stats simulates
// nothing; ResetSharedTraces drops the memoized results with the traces.
func TestStatsReusesEarlierFigures(t *testing.T) {
	o := memoOpts(6)
	ResetSharedTraces()
	c0 := SimulatedCycles()
	cold := buildFigure(t, "stats", o)
	coldCycles := SimulatedCycles() - c0
	if coldCycles == 0 {
		t.Fatal("stats on a fresh cache simulated nothing")
	}

	ResetSharedTraces()
	buildFigure(t, "fig2", o)
	buildFigure(t, "fig6", o)
	for _, run := range []string{"after fig2 and fig6", "re-run"} {
		c0 = SimulatedCycles()
		got := buildFigure(t, "stats", o)
		if d := SimulatedCycles() - c0; d != 0 {
			t.Errorf("stats %s simulated %d cycles, want 0", run, d)
		}
		if d := bitDiffs(cold, got); len(d) > 0 {
			t.Errorf("stats %s: metrics differ from a cold run: %v", run, d)
		}
	}

	ResetSharedTraces()
	c0 = SimulatedCycles()
	again := buildFigure(t, "stats", o)
	if d := SimulatedCycles() - c0; d != coldCycles {
		t.Errorf("stats after ResetSharedTraces simulated %d cycles, want %d (a cold run)", d, coldCycles)
	}
	if d := bitDiffs(cold, again); len(d) > 0 {
		t.Errorf("stats after reset: metrics differ from a cold run: %v", d)
	}
	ResetSharedTraces()
}

// The memo key is the cell's resolved identity: a nil override and the
// explicit Table I default are one machine, while specs differing in one
// keyed field (the window geometry, the model name, fast-forward) are
// simulated separately. "ooo" with NoLQ set builds the same core as
// "ooo-nolq", but its Result carries the other model name. A spec with a
// trace sink always runs, since its output is the event stream.
func TestResultMemoKeySeparatesSpecs(t *testing.T) {
	o := Options{Apps: []string{"gcc"}, Ops: 1500, Warmup: 500, Seed: 8}
	def := core.DefaultConfig()
	ws11 := core.DefaultConfig()
	ws11.WS, ws11.SO = 1, 1
	noLQ := ooo.DefaultConfig()
	noLQ.NoLQ = true
	events := 0
	sink := ptrace.SinkFunc(func(ptrace.Event) { events++ })
	ResetSharedTraces()
	res, err := runMatrix(o, func(string) []Spec {
		return []Spec{
			{Model: ModelCASINO},
			{Model: ModelCASINO, CasinoCfg: &def},
			{Model: ModelCASINO, CasinoCfg: &ws11},
			{Model: ModelOoO},
			{Model: ModelOoONoLQ},
			{Model: ModelOoO, DisableFastForward: true},
			{Model: ModelOoO, OoOCfg: &noLQ},
			{Model: ModelCASINO, TraceSink: sink},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sharedTraces.entry("gcc", o.traceLen(), o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if entries, hits, misses := ct.results.Stats(); entries != 6 || hits != 1 || misses != 6 {
		t.Errorf("result memo: %d entries, %d hits, %d misses; want 6, 1, 6", entries, hits, misses)
	}
	r := res["gcc"]
	if !reflect.DeepEqual(r[0], r[1]) {
		t.Error("nil CasinoCfg and the explicit default gave different results")
	}
	if r[2].Cycles == r[1].Cycles {
		t.Error("[1,1] and [2,1] windows share a result")
	}
	if r[3].Model != ModelOoO || r[4].Model != ModelOoONoLQ || r[3].AreaMM2 == r[4].AreaMM2 {
		t.Errorf("ooo and ooo-nolq share a result: %s %v vs %s %v", r[3].Model, r[3].AreaMM2, r[4].Model, r[4].AreaMM2)
	}
	if r[3].Extra["ff.jumps"] == 0 || r[5].Extra["ff.jumps"] != 0 {
		t.Errorf("fast-forward on/off share a result: ff.jumps %v vs %v", r[3].Extra["ff.jumps"], r[5].Extra["ff.jumps"])
	}
	if r[3].Cycles != r[5].Cycles {
		t.Errorf("stepping changed the timing: %d vs %d cycles", r[3].Cycles, r[5].Cycles)
	}
	if r[6].Model != ModelOoO || r[6].Cycles != r[4].Cycles {
		t.Errorf("ooo with NoLQ: model %q, %d cycles; want %q and ooo-nolq's %d", r[6].Model, r[6].Cycles, ModelOoO, r[4].Cycles)
	}
	if events == 0 || r[7].Cycles != r[0].Cycles {
		t.Errorf("traced cell: %d events, %d cycles; want a run that matches the untraced %d cycles", events, r[7].Cycles, r[0].Cycles)
	}
	ResetSharedTraces()
}

// Figures running concurrently share cells through the memo (run under
// -race in CI): each reports what it reports alone, and every distinct
// cell is simulated exactly once, as in a sequential run.
func TestConcurrentFiguresShareCells(t *testing.T) {
	o := memoOpts(9)
	figs := []string{"fig2", "fig6", "fig9", "fig11", "stats"}
	want := make([]*manifest.Manifest, len(figs))
	for i, f := range figs {
		ResetSharedTraces()
		want[i] = buildFigure(t, f, o)
	}
	ResetSharedTraces()
	c0 := SimulatedCycles()
	for _, f := range figs {
		buildFigure(t, f, o)
	}
	sequential := SimulatedCycles() - c0

	ResetSharedTraces()
	got := make([]*manifest.Manifest, len(figs))
	c0 = SimulatedCycles()
	var wg sync.WaitGroup
	for i, f := range figs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := BuildManifest(f, o)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = m
		}()
	}
	wg.Wait()
	if d := SimulatedCycles() - c0; d != sequential {
		t.Errorf("concurrent figures simulated %d cycles, a sequential run %d", d, sequential)
	}
	for i, f := range figs {
		if got[i] == nil {
			continue // its error is already reported
		}
		if d := bitDiffs(want[i], got[i]); len(d) > 0 {
			t.Errorf("%s: %d metrics differ when run concurrently, e.g. %v", f, len(d), d[0])
		}
	}
	ResetSharedTraces()
}

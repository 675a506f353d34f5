package dse

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"casino/internal/sim"
)

func TestExpandDeterministicAndDeduplicated(t *testing.T) {
	g := Grid{
		Models:     []string{"casino", "specino", "ino"},
		Workloads:  []string{"mcf", "milc"},
		Ops:        20000,
		Warmup:     5000,
		Seed:       1,
		Geometries: [][2]int{{2, 1}, {4, 2}},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Per workload: casino×2 geometries + specino×2 geometries + ino×1
	// (no geometry axis) = 5; two workloads = 10.
	if len(cells) != 10 {
		t.Fatalf("got %d cells, want 10: %+v", len(cells), cells)
	}
	keys := map[string]bool{}
	for _, c := range cells {
		if keys[c.Key()] {
			t.Errorf("duplicate cell %s", c.Key())
		}
		keys[c.Key()] = true
		if c.Ops != 20000 || c.Warmup != 5000 {
			t.Errorf("cell %s did not inherit run window: %+v", c.Key(), c)
		}
	}
	if !keys["mcf/ino"] {
		t.Errorf("ino cell should collapse the geometry axis: %v", keys)
	}
	if !keys["mcf/casino[ws4,so2]"] || !keys["milc/specino[ws2,so1]"] {
		t.Errorf("missing expected geometry cells: %v", keys)
	}

	again, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Error("expansion is not deterministic")
	}
}

func TestExpandDefaultsRunWindow(t *testing.T) {
	g := Grid{Models: []string{"ino"}, Workloads: []string{"mcf"}}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Ops != sim.DefaultOps || cells[0].Warmup != sim.DefaultWarmup {
		t.Errorf("defaults not applied: %+v", cells[0])
	}
}

func TestGridValidation(t *testing.T) {
	bad := []Grid{
		{Workloads: []string{"mcf"}},                                                           // no models
		{Models: []string{"casino"}},                                                           // no workloads
		{Models: []string{"nope"}, Workloads: []string{"mcf"}},                                 // unknown model
		{Models: []string{"casino"}, Workloads: []string{"nope"}},                              // unknown workload
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, Geometries: [][2]int{{1, 2}}}, // WS < SO
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, IQSizes: []int{0}},            // non-positive
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, OSCAWidths: []int{48}},        // not power of two
		{Models: []string{"specino"}, Workloads: []string{"mcf"}, IQSizes: []int{100}},         // IQ beyond the 64-bit issue mask
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, SBSizes: []int{256}},          // SQ beyond the OSCA's 8-bit counters
		// Structures beyond pipeline.MaxEntries, which a core would size
		// per-entry arrays from at construction.
		{Models: []string{"ooo"}, Workloads: []string{"mcf"}, ROBSizes: []int{1_000_000_000}},
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, IQSizes: []int{1_000_000_000}},
		{Models: []string{"ino"}, Workloads: []string{"mcf"}, IQSizes: []int{1_000_000_000}},
		{Models: []string{"lsc"}, Workloads: []string{"mcf"}, SBSizes: []int{1_000_000_000}},
		{Models: []string{"casino"}, Workloads: []string{"mcf"}, OSCAWidths: []int{1 << 40}},
	}
	for i, g := range bad {
		if _, err := g.Expand(); err == nil {
			t.Errorf("grid %d accepted: %+v", i, g)
		}
	}
}

// sizes returns 1..n, one axis of n distinct values.
func sizes(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i + 1
	}
	return v
}

// TestGridBounds: a cell may run at most maxCellOps ops including the
// (defaulted) warm-up, and a grid may expand to at most maxGridCells
// cells; both limits reject before anything is generated or expanded.
func TestGridBounds(t *testing.T) {
	base := Grid{Models: []string{"casino"}, Workloads: []string{"mcf"}}
	with := func(f func(*Grid)) Grid {
		g := base
		f(&g)
		return g
	}
	for name, tc := range map[string]struct {
		g    Grid
		want string // "" = accepted
	}{
		"ops at the limit":     {with(func(g *Grid) { g.Ops = maxCellOps - sim.DefaultWarmup }), ""},
		"default warm-up over": {with(func(g *Grid) { g.Ops = maxCellOps - sim.DefaultWarmup + 1 }), "cell limit"},
		"4e9 ops":              {with(func(g *Grid) { g.Ops = 4_000_000_000 }), "cell limit"},
		"warm-up over":         {with(func(g *Grid) { g.Ops, g.Warmup = 1000, maxCellOps }), "cell limit"},
		"sum overflows int":    {with(func(g *Grid) { g.Ops, g.Warmup = math.MaxInt, math.MaxInt }), "cell limit"},
		"cells at the limit":   {with(func(g *Grid) { g.IQSizes, g.SBSizes = sizes(100), sizes(100) }), ""},
		"cells over":           {with(func(g *Grid) { g.IQSizes, g.SBSizes = sizes(101), sizes(100) }), "more than 10000 cells"},
		"axis product overflows": {with(func(g *Grid) {
			n := 1 << 13 // five casino axes of 2^13 values: a 2^65-cell product
			g.Geometries = make([][2]int, n)
			g.OSCAWidths = make([]int, n)
			for i := range g.Geometries {
				g.Geometries[i], g.OSCAWidths[i] = [2]int{1, 1}, 1
			}
			g.IQSizes, g.SBSizes, g.ROBSizes = sizes(n), sizes(n), sizes(n)
		}), "more than 10000 cells"},
		"cells summed over models": {with(func(g *Grid) { g.Models, g.IQSizes, g.SBSizes = []string{"casino", "ooo"}, sizes(100), sizes(60) }), "more than 10000 cells"},
	} {
		err := tc.g.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

func TestCellSpecAppliesOverrides(t *testing.T) {
	c := Cell{Workload: "mcf", Model: "casino", WS: 4, SO: 2, IQ: 20, SB: 16, ROB: 64, OSCA: 128,
		Ops: 20000, Warmup: 5000, Seed: 1}
	s, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.CasinoCfg
	if cfg.WS != 4 || cfg.SO != 2 || cfg.IQSize != 20 || cfg.SQSize != 16 || cfg.ROBSize != 64 || cfg.OSCASize != 128 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if got := c.Key(); got != "mcf/casino[ws4,so2,iq20,sb16,rob64,osca128]" {
		t.Errorf("key = %q", got)
	}
}

func TestCacheKeySeparatesSpecAndTrace(t *testing.T) {
	a := Cell{Workload: "mcf", Model: "casino", WS: 2, SO: 1, Ops: 20000, Warmup: 5000, Seed: 1}
	b := a
	b.SO = 2
	b.WS = 2
	if a.CacheKey(42) == b.CacheKey(42) {
		t.Error("different specs share a cache key")
	}
	if a.CacheKey(42) == a.CacheKey(43) {
		t.Error("different traces share a cache key")
	}
	if a.CacheKey(42) != a.CacheKey(42) {
		t.Error("cache key not stable")
	}
}

func TestReadGridRejectsUnknownFields(t *testing.T) {
	if _, err := ReadGrid(strings.NewReader(`{"models":["ino"],"workloads":["mcf"],"iq_size":[8]}`)); err == nil {
		t.Error("typo'd axis name accepted")
	}
	g, err := ReadGrid(strings.NewReader(`{"models":["ino"],"workloads":["mcf"],"ops":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Ops != 1000 {
		t.Errorf("ops = %d", g.Ops)
	}
}

// FuzzGrid sends arbitrary grid JSON through ReadGrid and Expand and runs
// the first cells it expands to through sim.Run. Nothing may panic: a bad
// grid is an error from ReadGrid or Expand, and a cell that expanded runs
// or returns an error. Before running, the grid is clamped so each input
// takes milliseconds: at most fuzzOps ops and fuzzWarmup warm-up ops per
// cell, structure sizes and window widths of at most fuzzSize, and the
// first fuzzCells cells. Unclamped, a size axis of 10^9 entries asks for
// gigabytes at core construction.
func FuzzGrid(f *testing.F) {
	const fuzzOps, fuzzWarmup, fuzzSize, fuzzCells = 300, 100, 1024, 8
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		g.Expand() // the limits on the unclamped grid are errors, not panics
		if g.Ops <= 0 || g.Ops > fuzzOps {
			g.Ops = fuzzOps
		}
		if g.Warmup == 0 || g.Warmup > fuzzWarmup {
			g.Warmup = fuzzWarmup
		}
		for _, axis := range [][]int{g.IQSizes, g.SBSizes, g.ROBSizes, g.OSCAWidths} {
			for i := range axis {
				axis[i] = min(axis[i], fuzzSize)
			}
		}
		for i := range g.Geometries {
			g.Geometries[i][0] = min(g.Geometries[i][0], fuzzSize)
			g.Geometries[i][1] = min(g.Geometries[i][1], fuzzSize)
		}
		cells, err := g.Expand()
		if err != nil {
			return
		}
		for _, c := range cells[:min(len(cells), fuzzCells)] {
			spec, err := c.Spec()
			if err != nil {
				t.Fatalf("expanded cell %s has no spec: %v", c.Key(), err)
			}
			sim.Run(spec)
		}
	})
}

package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"casino/internal/manifest"
	"casino/internal/sim"
)

// everyAxisGrid lists all seven models and gives every sweep axis two
// points (one for SB), over two workloads.
func everyAxisGrid() Grid {
	return Grid{
		Models:     sim.Models(),
		Workloads:  []string{"mcf", "milc"},
		Ops:        20000,
		Warmup:     5000,
		Seed:       3,
		Geometries: [][2]int{{2, 1}, {4, 2}},
		IQSizes:    []int{16, 32},
		SBSizes:    []int{8},
		ROBSizes:   []int{64, 128},
		OSCAWidths: []int{4, 8},
	}
}

// referenceKey, referenceSpecFP and referenceCacheKey are the fmt-based
// cell identity the strconv builders replaced; cell keys, spec
// fingerprints and cache keys appear in sweep manifests and key the
// result cache, so they must not change.
func referenceKey(c Cell) string {
	var parts []string
	for _, a := range []struct {
		name string
		v    int
	}{{"ws", c.WS}, {"so", c.SO}, {"iq", c.IQ}, {"sb", c.SB}, {"rob", c.ROB}, {"osca", c.OSCA}} {
		if a.v > 0 {
			parts = append(parts, fmt.Sprintf("%s%d", a.name, a.v))
		}
	}
	key := c.Workload + "/" + c.Model
	if len(parts) > 0 {
		key += "[" + strings.Join(parts, ",") + "]"
	}
	if c.Sampling != nil {
		key += "@sampled"
	}
	return key
}

func referenceSpecFP(c Cell) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|ops=%d|warmup=%d|seed=%d", referenceKey(c), c.Ops, c.Warmup, c.Seed)
	if c.Sampling != nil {
		sp := c.Sampling.Normalized()
		fmt.Fprintf(h, "|sampling=%d/%d/%d", sp.Period, sp.DetailOps, sp.WarmOps)
	}
	return h.Sum64()
}

func referenceCacheKey(c Cell, traceFP uint64) string {
	return fmt.Sprintf("%016x/%016x", referenceSpecFP(c), traceFP)
}

// referenceMerge is the per-cell path MergeCells replaced, kept as its
// byte reference: one single-cell manifest per cell, folded together by a
// union that sorts Apps and Cells.
func referenceMerge(cells []Cell, results []sim.Result, traceFPs map[string]uint64) *manifest.Manifest {
	parts := make([]*manifest.Manifest, len(cells))
	for i, c := range cells {
		r, fp := results[i], fmt.Sprintf("%016x", traceFPs[c.Workload])
		m := manifest.New(SweepFigure)
		m.Kind = manifest.KindSweep
		m.Ops, m.Warmup, m.Seed = c.Ops, c.Warmup, c.Seed
		m.Apps = []string{c.Workload}
		m.Workloads[c.Workload] = fp
		m.GoVersion = runtime.Version()
		m.Cells = []manifest.Cell{{Key: referenceKey(c), Model: c.Model, Workload: c.Workload,
			SpecFP: fmt.Sprintf("%016x", referenceSpecFP(c)), TraceFP: fp}}
		p := "cell." + referenceKey(c) + "."
		m.Metrics[p+"ipc"] = r.IPC
		m.Metrics[p+"cycles"] = float64(r.Cycles)
		m.Metrics[p+"instructions"] = float64(r.Instructions)
		m.Metrics[p+"total_pj"] = r.TotalPJ
		m.Metrics[p+"energy_per_inst_pj"] = r.EnergyPerInst
		m.Metrics[p+"perf_per_energy"] = r.PerfPerEnergy
		m.Metrics[p+"area_mm2"] = r.AreaMM2
		if r.Sampled != nil {
			m.Metrics[p+"ipc_ci95"] = r.Sampled.IPCCI95
			m.Metrics[p+"windows"] = float64(r.Sampled.Windows)
			m.Metrics[p+"detail_fraction"] = r.Sampled.DetailFraction
		}
		parts[i] = m
	}

	first := parts[0]
	out := &manifest.Manifest{
		Version: manifest.Version, Kind: first.Kind, Figure: first.Figure,
		Ops: first.Ops, Warmup: first.Warmup, Seed: first.Seed,
		Workloads: map[string]string{}, Metrics: map[string]float64{}, GoVersion: first.GoVersion,
	}
	cellsByKey := map[string]manifest.Cell{}
	apps := map[string]bool{}
	for _, p := range parts {
		for _, app := range p.Apps {
			apps[app] = true
		}
		for app, fp := range p.Workloads {
			out.Workloads[app] = fp
		}
		for name, v := range p.Metrics {
			out.Metrics[name] = v
		}
		for _, c := range p.Cells {
			cellsByKey[c.Key] = c
		}
	}
	for app := range apps {
		out.Apps = append(out.Apps, app)
	}
	sort.Strings(out.Apps)
	keys := make([]string, 0, len(cellsByKey))
	for k := range cellsByKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.Cells = append(out.Cells, cellsByKey[k])
	}
	return out
}

// fakeResults gives each cell a distinct result without simulating it.
// Some values fall in encoding/json's exponent range, and sampled cells
// carry window statistics.
func fakeResults(cells []Cell) []sim.Result {
	out := make([]sim.Result, len(cells))
	for i, c := range cells {
		r := sim.Result{
			IPC:           0.25 + float64(i)/7,
			Cycles:        uint64(100003 * (i + 1)),
			Instructions:  uint64(c.Ops),
			TotalPJ:       3.7e21 / float64(i+1),
			EnergyPerInst: 1.0 / float64(i+3),
			PerfPerEnergy: 4e-7 * float64(i),
			AreaMM2:       2.5 + float64(i%5)/8,
		}
		if c.Sampling != nil {
			r.Sampled = &sim.SampledStats{IPCCI95: 0.01 * float64(i), Windows: 10 + i, DetailFraction: 1.0 / float64(i+2)}
		}
		out[i] = r
	}
	return out
}

// fakeTraceFPs gives each workload of the cells a trace fingerprint,
// one of them with leading zero digits.
func fakeTraceFPs(cells []Cell) map[string]uint64 {
	fps := map[string]uint64{}
	for _, c := range cells {
		if _, ok := fps[c.Workload]; !ok {
			fps[c.Workload] = 0xabc + uint64(len(fps))*0xf00d00deadbeef
		}
	}
	return fps
}

// sampledFirstCells returns both phases of a sampled-first sweep of the
// every-axis grid as runSweep merges them: every cell at sampled
// fidelity, then every third cell promoted.
func sampledFirstCells(t *testing.T) []Cell {
	t.Helper()
	g := everyAxisGrid()
	g.Sampling = &sim.Sampling{Period: 900}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := 0, len(cells); i < n; i += 3 {
		cells = append(cells, cells[i].Promote())
	}
	return cells
}

// jsonBytes encodes m with encoding/json, the reference Encode matches.
func jsonBytes(t *testing.T, m *manifest.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The cell identity built with strconv is the fmt-built one, for every
// model and axis at both fidelities.
func TestCellIdentityMatchesReference(t *testing.T) {
	cells, err := everyAxisGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, sampledFirstCells(t)...)
	cells = append(cells, Cell{Workload: "mcf", Model: "ino", Ops: -1, Warmup: 0, Seed: -7})
	for _, c := range cells {
		if got, want := c.Key(), referenceKey(c); got != want {
			t.Errorf("Key = %q, want %q", got, want)
		}
		if got, want := c.SpecFingerprint(), referenceSpecFP(c); got != want {
			t.Errorf("%s: SpecFingerprint = %x, want %x", c.Key(), got, want)
		}
		for _, traceFP := range []uint64{0, 0xabc, 1<<64 - 1} {
			if got, want := c.CacheKey(traceFP), referenceCacheKey(c, traceFP); got != want {
				t.Errorf("CacheKey = %q, want %q", got, want)
			}
		}
	}
}

// MergeCells builds the bytes the per-cell path built, for a grid with
// every model and axis and for both phases of a sampled-first sweep.
func TestMergeCellsMatchesPerCellMerge(t *testing.T) {
	full, err := everyAxisGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for name, cells := range map[string][]Cell{"every axis": full, "sampled first": sampledFirstCells(t)} {
		t.Run(name, func(t *testing.T) {
			results, fps := fakeResults(cells), fakeTraceFPs(cells)
			got, err := MergeCells(cells, results, fps)
			if err != nil {
				t.Fatal(err)
			}
			want := jsonBytes(t, referenceMerge(cells, results, fps))
			if !bytes.Equal(encodeManifest(t, got), want) {
				t.Errorf("MergeCells of %d cells differs from the per-cell merge", len(cells))
			}
			if !bytes.Equal(jsonBytes(t, got), want) {
				t.Errorf("MergeCells output encodes differently through encoding/json")
			}
		})
	}
}

// Cell order does not reach the bytes: a sharded sweep finishes cells in
// any order, and its manifest must equal a serial run's.
func TestMergeCellsShuffleInvariant(t *testing.T) {
	cells := sampledFirstCells(t)
	results, fps := fakeResults(cells), fakeTraceFPs(cells)
	m, err := MergeCells(cells, results, fps)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeManifest(t, m)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(cells), func(i, j int) {
			cells[i], cells[j] = cells[j], cells[i]
			results[i], results[j] = results[j], results[i]
		})
		m, err := MergeCells(cells, results, fps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeManifest(t, m), want) {
			t.Fatalf("shuffle %d changed the merged bytes", trial)
		}
	}
}

// MergeCells refuses input that is not one sweep's set of distinct cells.
func TestMergeCellsRejectsBadInput(t *testing.T) {
	cells, err := testGrid([]string{"ino", "casino"}, [][2]int{{2, 1}}, "mcf", "milc").Expand()
	if err != nil {
		t.Fatal(err)
	}
	results, fps := fakeResults(cells), fakeTraceFPs(cells)
	otherSeed := append([]Cell(nil), cells...)
	otherSeed[2].Seed++
	for name, tc := range map[string]struct {
		cells   []Cell
		results []sim.Result
		fps     map[string]uint64
		want    string
	}{
		"count mismatch":   {cells, results[1:], fps, "4 cells but 3 results"},
		"no cells":         {nil, nil, fps, "zero cells"},
		"no trace":         {cells, results, map[string]uint64{"mcf": 1}, `no trace fingerprint for workload "milc"`},
		"two run windows":  {otherSeed, results, fps, "seed=2, the sweep"},
		"duplicate cell":   {append(cells, cells[1]), append(results, results[1]), fps, "appears twice"},
		"duplicate hidden": {append(cells, cells[3]), append(results, results[0]), fps, "appears twice"},
	} {
		if _, err := MergeCells(tc.cells, tc.results, tc.fps); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}

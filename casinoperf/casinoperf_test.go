package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must honour.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricListsMatchBenchmark pins the harness's metric lists to the ones
// BENCHMARK.json declares, name for name and unit for unit.
func TestMetricListsMatchBenchmark(t *testing.T) {
	bf := readBenchmark(t)
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics)
	check("per_layer", bf.PerLayer, layerMetrics)
	for _, w := range bf.Workloads {
		if _, ok := sizes[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the harness", w.Name)
		}
	}
	if len(bf.Workloads) != len(sizes) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(bf.Workloads), len(sizes))
	}
}

// TestSmoke runs every workload at a tiny size, untraced (three repeats)
// and traced, against a casino-server built for the test. The correctness
// gates must pass and every metric BENCHMARK.json lists must come out with
// its unit. It runs at seed 2: at seed 1 figures-full adds a full
// golden-spec run, which takes longer than the whole smoke test.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds casino-server and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "casino-server")
	if out, err := exec.Command("go", "build", "-o", bin, "casino/cmd/casino-server").CombinedOutput(); err != nil {
		t.Fatalf("build casino-server: %v\n%s", err, out)
	}
	two := []string{"gcc", "mcf"}
	tiny := map[string]size{
		"figures-full":    {apps: two, ops: 2000, warmup: 500},
		"figures-sampled": {apps: two, ops: 20000, warmup: 2000},
		"cells-memory":    {apps: two, ops: 2000, warmup: 500},
		"sweep-service":   {ops: 2000, warmup: 500},
	}
	bf := readBenchmark(t)
	for name, sz := range tiny {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 2, seconds: 1, traced: traced,
				traceDir: filepath.Join(dir, "trace"), repo: "..", serverBin: bin,
				workers: min(2, runtime.NumCPU()), size: sz,
			}
			rep := run(cfg)
			for _, f := range rep.Failures {
				t.Errorf("%s traced=%v: %s", name, traced, f)
			}
			if rep.Attempted == 0 {
				t.Errorf("%s traced=%v: nothing attempted", name, traced)
			}
			listed := bf.EndToEnd
			if traced {
				listed = bf.PerLayer
			}
			got := summary(rep, traced).Metrics
			for _, m := range listed {
				if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) missing or with unit %q", name, traced, m.Name, m.Unit, v.Unit)
				}
			}
		}
	}
}

// TestSessionFollowsDocs pins the sweep session to the sizes and cache hits
// the documentation states for its grids.
func TestSessionFollowsDocs(t *testing.T) {
	plan := session(60000, 15000, 1)
	want := []struct{ cells, hits int }{{60, 0}, {60, 60}, {70, 60}, {12, 12}, {12, 12}, {4, 0}, {4, 4}}
	if len(plan) != len(want) {
		t.Fatalf("%d sweeps, want %d", len(plan), len(want))
	}
	for i, ps := range plan {
		cells, err := ps.grid.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != want[i].cells || ps.wantHits != want[i].hits {
			t.Errorf("sweep %d: %d cells, %d hits; want %d, %d", i+1, len(cells), ps.wantHits, want[i].cells, want[i].hits)
		}
	}
	if ci := plan[5].grid; ci.Ops != 20000 || ci.Warmup != 5000 {
		t.Errorf("CI grid at %d/%d ops, want 20000/5000", ci.Ops, ci.Warmup)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"casino/internal/mem.(*Cache).access":          "mem",
		"casino/internal/core.(*Core).Cycle":           "core",
		"casino/internal/isa.Reg.Valid":                "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":      "runtime",
		"net/http.(*conn).serve":                       "nethttp",
		"syscall.Syscall6":                             "nethttp",
		"encoding/json.(*encodeState).marshal":         "other",
		"main.main":                                    "other",
		"casino/internal/telemetry.(*Registry).Handle": "telemetry",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCovered(t *testing.T) {
	got := covered([][2]float64{{5, 8}, {0, 2}, {1, 3}, {7, 9}})
	if got != 7 {
		t.Errorf("covered = %v, want 7", got)
	}
}

package manifest

import (
	"strings"
	"testing"
)

func pair() (*Manifest, *Manifest) {
	g := sample()
	c := sample()
	return g, c
}

func kinds(diffs []Diff) map[string]int {
	out := map[string]int{}
	for _, d := range diffs {
		out[d.Kind]++
	}
	return out
}

func TestCompareIdentical(t *testing.T) {
	g, c := pair()
	if diffs := Compare(g, c, CompareOptions{}); len(diffs) != 0 {
		t.Fatalf("identical manifests diff: %v", diffs)
	}
}

func TestToleranceBoundaries(t *testing.T) {
	// Binary-representable bands so the inclusive boundary is exact.
	tol := Tolerance{Rel: 0.25, Abs: 0.015625}
	cases := []struct {
		want, got float64
		ok        bool
	}{
		{1.0, 1.0, true},
		{1.0, 1.25, true},       // exactly at the relative band edge: inclusive
		{1.0, 1.2500001, false}, // just past it
		{1.0, 0.75, true},
		{1.0, 0.7499999, false},
		{0.0, 0.015625, true}, // absolute floor covers want == 0
		{0.0, 0.03, false},    // past the floor
		{-2.0, -2.5, true},
		{-2.0, -2.5000001, false},
	}
	for _, tc := range cases {
		if got := tol.Allows(tc.want, tc.got); got != tc.ok {
			t.Errorf("Allows(%g, %g) = %v, want %v", tc.want, tc.got, got, tc.ok)
		}
	}
}

func TestCompareDriftIsNamed(t *testing.T) {
	g, c := pair()
	c.Metrics["fig6.norm_ipc_geomean.CASINO"] = 1.2 // well outside 0.1%
	diffs := Compare(g, c, CompareOptions{})
	if len(diffs) != 1 || diffs[0].Kind != DiffDrift {
		t.Fatalf("diffs = %v, want one drift", diffs)
	}
	if diffs[0].Metric != "fig6.norm_ipc_geomean.CASINO" {
		t.Fatalf("drift metric = %q, want the perturbed name", diffs[0].Metric)
	}
	if !strings.Contains(diffs[0].String(), "fig6.norm_ipc_geomean.CASINO") {
		t.Fatalf("rendered diff must name the metric: %s", diffs[0])
	}
}

func TestCompareWithinDefaultTolerance(t *testing.T) {
	g, c := pair()
	c.Metrics["fig6.norm_ipc_geomean.CASINO"] *= 1.0005 // 0.05% < 0.1%
	if diffs := Compare(g, c, CompareOptions{}); len(diffs) != 0 {
		t.Fatalf("sub-tolerance delta flagged: %v", diffs)
	}
}

func TestComparePerMetricOverride(t *testing.T) {
	g, c := pair()
	c.Metrics["fig6.norm_ipc_geomean.CASINO"] = 1.39 // ~0.4% off
	opt := CompareOptions{PerMetric: map[string]Tolerance{
		"fig6.norm_ipc_geomean.CASINO": {Rel: 0.05},
	}}
	if diffs := Compare(g, c, opt); len(diffs) != 0 {
		t.Fatalf("per-metric override ignored: %v", diffs)
	}
	// Prefix pattern, longest match wins over a looser general band.
	opt = CompareOptions{PerMetric: map[string]Tolerance{
		"fig6.*":                 {Rel: 0.05},
		"fig6.norm_ipc_geomean*": {Rel: 1e-6},
	}}
	diffs := Compare(g, c, opt)
	if len(diffs) != 1 || diffs[0].Kind != DiffDrift {
		t.Fatalf("longest-prefix tolerance not applied: %v", diffs)
	}
}

func TestCompareMissingMetric(t *testing.T) {
	g, c := pair()
	delete(c.Metrics, "fig6.norm_ipc_geomean.OoO")
	diffs := Compare(g, c, CompareOptions{})
	if len(diffs) != 1 || diffs[0].Kind != DiffMissing || diffs[0].Metric != "fig6.norm_ipc_geomean.OoO" {
		t.Fatalf("diffs = %v, want one named missing", diffs)
	}
	// Missing is drift even with AllowExtra.
	if diffs := Compare(g, c, CompareOptions{AllowExtra: true}); len(diffs) != 1 {
		t.Fatalf("AllowExtra must not forgive missing metrics: %v", diffs)
	}
}

func TestCompareUnexpectedMetric(t *testing.T) {
	g, c := pair()
	c.Metrics["fig6.newthing"] = 1
	diffs := Compare(g, c, CompareOptions{})
	if len(diffs) != 1 || diffs[0].Kind != DiffUnexpected {
		t.Fatalf("diffs = %v, want one unexpected", diffs)
	}
	if diffs := Compare(g, c, CompareOptions{AllowExtra: true}); len(diffs) != 0 {
		t.Fatalf("AllowExtra should tolerate candidate-only metrics: %v", diffs)
	}
}

func TestCompareFingerprintMismatch(t *testing.T) {
	g, c := pair()
	c.Workloads["mcf"] = "ffffffffffffffff"
	delete(c.Workloads, "milc")
	diffs := Compare(g, c, CompareOptions{})
	k := kinds(diffs)
	if k[DiffFingerprint] != 2 {
		t.Fatalf("diffs = %v, want two fingerprint diffs", diffs)
	}
}

func TestCompareSpecMismatchShortCircuits(t *testing.T) {
	g, c := pair()
	c.Seed = 99
	c.Metrics["fig6.norm_ipc_geomean.CASINO"] = 0 // would be drift
	diffs := Compare(g, c, CompareOptions{})
	if len(diffs) != 1 || diffs[0].Kind != DiffSpec || diffs[0].Metric != "seed" {
		t.Fatalf("diffs = %v, want only the spec diff", diffs)
	}
}

// sweepManifest is a one-cell sweep manifest.
func sweepManifest(app, cellKey string, metric string, v float64) *Manifest {
	m := New("sweep")
	m.Kind = KindSweep
	m.Ops, m.Warmup, m.Seed = 20000, 5000, 1
	m.Apps = []string{app}
	m.Workloads[app] = "00000000deadbeef"
	m.Metrics[metric] = v
	m.Cells = []Cell{{Key: cellKey, Model: "casino", Workload: app,
		SpecFP: "0000000000000001", TraceFP: "00000000deadbeef"}}
	return m
}

func TestCompareChecksCells(t *testing.T) {
	golden := sweepManifest("mcf", "mcf/casino[ws2,so1]", "cell.mcf/casino[ws2,so1].ipc", 1.25)

	// Identical manifests: no diffs.
	same := sweepManifest("mcf", "mcf/casino[ws2,so1]", "cell.mcf/casino[ws2,so1].ipc", 1.25)
	if diffs := Compare(golden, same, CompareOptions{}); len(diffs) != 0 {
		t.Fatalf("identical sweep manifests diff: %v", diffs)
	}

	// Same metrics but a cell's spec fingerprint moved: must be flagged.
	drifted := sweepManifest("mcf", "mcf/casino[ws2,so1]", "cell.mcf/casino[ws2,so1].ipc", 1.25)
	drifted.Cells[0].SpecFP = "000000000000beef"
	diffs := Compare(golden, drifted, CompareOptions{})
	if len(diffs) != 1 || diffs[0].Kind != DiffFingerprint {
		t.Fatalf("cell fingerprint drift not flagged: %v", diffs)
	}

	// Candidate carries an extra cell: flagged even with AllowExtra (extra
	// cells mean a different sweep, not new instrumentation).
	extra := sweepManifest("mcf", "mcf/casino[ws2,so1]", "cell.mcf/casino[ws2,so1].ipc", 1.25)
	extra.Cells = append(extra.Cells, Cell{Key: "mcf/ino", Model: "ino", Workload: "mcf",
		SpecFP: "0000000000000002", TraceFP: "00000000deadbeef"})
	diffs = Compare(golden, extra, CompareOptions{AllowExtra: true})
	if len(diffs) != 1 || !strings.Contains(diffs[0].Metric, "mcf/ino") {
		t.Fatalf("extra cell not flagged: %v", diffs)
	}
}

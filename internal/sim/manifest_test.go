package sim

import (
	"maps"
	"strings"
	"testing"

	"casino/internal/manifest"
)

func TestRunMatrixPartialFailure(t *testing.T) {
	o := Options{Apps: []string{"gcc", "mcf"}, Ops: 2000, Warmup: 500, Seed: 1}
	mk := func(app string) []Spec {
		specs := []Spec{{Model: ModelInO}, {Model: ModelCASINO}}
		if app == "mcf" {
			specs[1].Model = "no-such-model"
		}
		return specs
	}
	res, err := runMatrix(o, mk)
	if err == nil {
		t.Fatal("runMatrix must surface worker errors")
	}
	if !strings.Contains(err.Error(), "cell (mcf, no-such-model[1])") {
		t.Errorf("error must name the failed cell: %v", err)
	}
	if _, ok := res["mcf"]; ok {
		t.Error("app with a failed cell must be dropped from results")
	}
	if rs, ok := res["gcc"]; !ok || len(rs) != 2 || rs[0].IPC <= 0 || rs[1].IPC <= 0 {
		t.Errorf("complete columns must survive a partial failure: %v", res["gcc"])
	}
}

func TestBuildManifestFig6(t *testing.T) {
	o := Options{Apps: []string{"gcc", "mcf"}, Ops: 2000, Warmup: 500, Seed: 1}
	m, err := BuildManifest("fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != manifest.Version || m.Figure != "fig6" || m.Kind != manifest.KindFigures {
		t.Fatalf("manifest header wrong: %+v", m)
	}
	if m.Ops != 2000 || m.Warmup != 500 || m.Seed != 1 || len(m.Apps) != 2 {
		t.Fatalf("manifest spec wrong: %+v", m)
	}
	for _, app := range m.Apps {
		fp, ok := m.Workloads[app]
		if !ok || len(fp) != 16 {
			t.Fatalf("workload fingerprint missing/malformed for %s: %q", app, fp)
		}
	}
	for _, label := range []string{"InO", "LSC", "Freeway", "CASINO", "OoO"} {
		if _, ok := m.Metrics["fig6.norm_ipc_geomean."+label]; !ok {
			t.Errorf("missing geomean metric for %s", label)
		}
	}
	if v := m.Metrics["fig6.norm_ipc_geomean.InO"]; v != 1 {
		t.Errorf("InO baseline geomean = %v, want 1", v)
	}
	// Per-label registry means must be present (named internal counters).
	if _, ok := m.Metrics["fig6.mean.CASINO.siqFrac"]; !ok {
		t.Error("missing per-label mean of a registry metric (fig6.mean.CASINO.siqFrac)")
	}
	if _, ok := m.Metrics["fig6.mean.OoO.occ.rob.mean"]; !ok {
		t.Error("missing occupancy-hist mean (fig6.mean.OoO.occ.rob.mean)")
	}
}

func TestBuildManifestDeterministic(t *testing.T) {
	o := Options{Apps: []string{"gcc"}, Ops: 2000, Warmup: 500, Seed: 1}
	a, err := BuildManifest("fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	ResetSharedTraces() // simulate again rather than reuse a's memoized cells
	b, err := BuildManifest("fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := manifest.Compare(a, b, manifest.CompareOptions{Default: manifest.Tolerance{}}); len(diffs) != 0 {
		t.Fatalf("identical runs must produce bit-identical metrics: %v", diffs)
	}
}

func TestBuildManifestPerturbationIsNamed(t *testing.T) {
	o := Options{Apps: []string{"gcc"}, Ops: 2000, Warmup: 500, Seed: 1}
	golden, err := BuildManifest("fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	// A different seed is a spec change, caught before metric diffing.
	perturbed, err := BuildManifest("fig6", Options{Apps: []string{"gcc"}, Ops: 2000, Warmup: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	diffs := manifest.Compare(golden, perturbed, manifest.CompareOptions{})
	if len(diffs) == 0 || diffs[0].Kind != manifest.DiffSpec {
		t.Fatalf("seed change must be a spec diff: %v", diffs)
	}
}

func TestBuildManifestUnknownFigure(t *testing.T) {
	if _, err := BuildManifest("table1", Options{}); err == nil {
		t.Error("unknown figure accepted")
	}
}

// Every figure id and alias, in any case, names the same figure for the
// text tables and for the run manifest: RunFigure and BuildManifest agree
// on the figure and on its metrics. Table I renders but has no manifest.
func TestFigureNamesResolveAlikeForManifest(t *testing.T) {
	o := Options{Apps: []string{"gcc"}, Ops: 400, Warmup: 100, Seed: 1}
	for _, f := range figures {
		for _, name := range append([]string{f.id, strings.ToUpper(f.id)}, f.aliases...) {
			text, metrics, err := RunFigure(name, o)
			if err != nil || text == "" {
				t.Errorf("RunFigure(%q): %v", name, err)
				continue
			}
			m, err := BuildManifest(name, o)
			if f.prose {
				if err == nil {
					t.Errorf("BuildManifest(%q) accepted a prose table", name)
				}
				continue
			}
			if err != nil {
				t.Errorf("BuildManifest(%q): %v", name, err)
				continue
			}
			if m.Figure != f.id || len(metrics) == 0 || !maps.Equal(m.Metrics, metrics) {
				t.Errorf("BuildManifest(%q) = figure %q with %d metrics, RunFigure gave %d for %q",
					name, m.Figure, len(m.Metrics), len(metrics), f.id)
			}
		}
	}
	if _, _, err := RunFigure("fig99", o); err == nil {
		t.Error("unknown figure accepted")
	}
}

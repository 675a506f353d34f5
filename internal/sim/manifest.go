package sim

import (
	"fmt"
	"maps"
	"runtime"
	"time"

	"casino/internal/manifest"
)

// ManifestFigures returns the figure ids BuildManifest("all") covers:
// every evaluation figure with numeric output (Table I is prose-only).
func ManifestFigures() []string {
	var ids []string
	for _, f := range figures {
		if !f.prose {
			ids = append(ids, f.id)
		}
	}
	return ids
}

// BuildManifest runs the requested figure (an id or alias, or "all") and
// returns the versioned run manifest: the resolved spec, the fingerprint
// of every workload trace replayed, and the flat metric map the
// golden-stats CI gate diffs. Wall time and allocation totals are recorded
// for trend tracking but never compared.
func BuildManifest(fig string, o Options) (*manifest.Manifest, error) {
	var figs []*figure
	if fig == "all" {
		for i := range figures {
			if !figures[i].prose {
				figs = append(figs, &figures[i])
			}
		}
	} else {
		f, ok := lookupFigure(fig)
		if !ok || f.prose {
			return nil, fmt.Errorf("sim: no manifest for figure %q (known: %v, or 'all')", fig, ManifestFigures())
		}
		figs, fig = []*figure{f}, f.id
	}

	start := time.Now()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	m := manifest.New(fig)
	m.Ops = o.Ops
	if m.Ops <= 0 {
		m.Ops = DefaultOps
	}
	m.Warmup = o.Warmup
	if m.Warmup == 0 {
		m.Warmup = DefaultWarmup
	}
	m.Seed = o.Seed
	m.Apps = append([]string(nil), o.apps()...)
	m.GoVersion = runtime.Version()

	for _, app := range o.apps() {
		tr, err := SharedTrace(app, o.traceLen(), o.Seed)
		if err != nil {
			return nil, err
		}
		m.Workloads[app] = fmt.Sprintf("%016x", tr.Fingerprint())
	}

	for _, f := range figs {
		_, metrics, err := f.regenerate(o)
		if err != nil {
			return nil, fmt.Errorf("sim: manifest %s: %w", f.id, err)
		}
		maps.Copy(m.Metrics, metrics)
	}

	runtime.ReadMemStats(&ms1)
	m.WallSeconds = time.Since(start).Seconds()
	m.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return m, nil
}

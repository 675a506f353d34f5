package dse

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"casino/internal/manifest"
	"casino/internal/sim"
)

// SweepFigure is the Figure id of sweep manifests (Compare gates it).
const SweepFigure = "sweep"

// MergeCells builds the manifest of a completed sweep: each cell's
// provenance and its headline metrics under the "cell.<key>." prefix,
// plus the sorted workloads and their trace fingerprints. The cells must
// share one run window (ops, warm-up, seed) and have distinct keys. The
// output is a pure function of (cells, results, traces) and not of their
// order — Apps and Cells are sorted, Metrics is a map — so sharded and
// serial executions of the same grid encode to the same bytes. Wall time
// deliberately stays out of the manifest: it would break that property
// and Compare never reads it.
func MergeCells(cells []Cell, results []sim.Result, traceFPs map[string]uint64) (*manifest.Manifest, error) {
	if len(cells) != len(results) {
		return nil, fmt.Errorf("dse: %d cells but %d results", len(cells), len(results))
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("dse: merge of zero cells")
	}
	metrics := 7 * len(cells)
	for _, r := range results {
		if r.Sampled != nil {
			metrics += 3
		}
	}
	first := cells[0]
	m := &manifest.Manifest{
		Version:   manifest.Version,
		Kind:      manifest.KindSweep,
		Figure:    SweepFigure,
		Ops:       first.Ops,
		Warmup:    first.Warmup,
		Seed:      first.Seed,
		Workloads: make(map[string]string, len(traceFPs)),
		Metrics:   make(map[string]float64, metrics),
		Cells:     make([]manifest.Cell, len(cells)),
		GoVersion: runtime.Version(),
	}
	for i, c := range cells {
		if c.Ops != m.Ops || c.Warmup != m.Warmup || c.Seed != m.Seed {
			return nil, fmt.Errorf("dse: cell %s runs ops=%d warmup=%d seed=%d, the sweep ops=%d warmup=%d seed=%d",
				c.Key(), c.Ops, c.Warmup, c.Seed, m.Ops, m.Warmup, m.Seed)
		}
		traceFP, seen := m.Workloads[c.Workload]
		if !seen {
			fp, ok := traceFPs[c.Workload]
			if !ok {
				return nil, fmt.Errorf("dse: no trace fingerprint for workload %q", c.Workload)
			}
			traceFP = fmt.Sprintf("%016x", fp)
			m.Workloads[c.Workload] = traceFP
			m.Apps = append(m.Apps, c.Workload)
		}
		key := c.Key()
		m.Cells[i] = manifest.Cell{Key: key, Model: c.Model, Workload: c.Workload,
			SpecFP: fmt.Sprintf("%016x", c.SpecFingerprint()), TraceFP: traceFP}

		r, p := results[i], "cell."+key+"."
		m.Metrics[p+"ipc"] = r.IPC
		m.Metrics[p+"cycles"] = float64(r.Cycles)
		m.Metrics[p+"instructions"] = float64(r.Instructions)
		m.Metrics[p+"total_pj"] = r.TotalPJ
		m.Metrics[p+"energy_per_inst_pj"] = r.EnergyPerInst
		m.Metrics[p+"perf_per_energy"] = r.PerfPerEnergy
		m.Metrics[p+"area_mm2"] = r.AreaMM2
		if r.Sampled != nil {
			// Sampled cells (key suffix "@sampled") additionally publish the
			// statistical quality of their estimate.
			m.Metrics[p+"ipc_ci95"] = r.Sampled.IPCCI95
			m.Metrics[p+"windows"] = float64(r.Sampled.Windows)
			m.Metrics[p+"detail_fraction"] = r.Sampled.DetailFraction
		}
	}
	sort.Strings(m.Apps)
	slices.SortFunc(m.Cells, func(a, b manifest.Cell) int { return strings.Compare(a.Key, b.Key) })
	for i := 1; i < len(m.Cells); i++ {
		if m.Cells[i].Key == m.Cells[i-1].Key {
			return nil, fmt.Errorf("dse: cell %s appears twice", m.Cells[i].Key)
		}
	}
	return m, nil
}

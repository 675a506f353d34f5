package dse

import (
	"fmt"

	"casino/internal/manifest"
	"casino/internal/sim"
)

// SweepStats counts the sampled-first execution of a sweep; zero-valued
// when the grid ran at full fidelity throughout.
type SweepStats struct {
	SampledCells  int `json:"sampled_cells,omitempty"`
	PromotedCells int `json:"promoted_cells,omitempty"`
}

// RunGrid executes the grid synchronously on a pool of `workers`
// goroutines (1 = strictly serial, <= 0 = all CPUs) with no result cache,
// returning the merged sweep manifest and every design point. It is the
// gating path: `casino-bench sweep -workers 1` runs the exact cells a
// server sweep shards, and the manifests must be byte-identical.
func RunGrid(g Grid, workers int) (*manifest.Manifest, []Point, error) {
	m, pts, _, err := RunGridStats(g, workers, nil)
	return m, pts, err
}

// RunGridStats is RunGrid with a progress observer and the sampled-first
// execution counters. onCell, when non-nil, is called after each completed
// cell with the running done count and the total (calls are serialized, in
// completion order; on a sampled-first sweep the total grows once the
// promotion set is known). The observer sees wall-clock pacing only — the
// returned manifest is byte-identical with or without it.
func RunGridStats(g Grid, workers int, onCell func(done, total int)) (*manifest.Manifest, []Point, SweepStats, error) {
	cells, err := g.Expand()
	if err != nil {
		return nil, nil, SweepStats{}, err
	}
	done, total := 0, len(cells)
	observe := func(sim.CellResult) {
		done++
		if onCell != nil {
			onCell(done, total)
		}
	}
	var stats SweepStats
	m, points, err := runSweep(cells, g.Sampling != nil,
		func(phase []Cell, _ map[string]uint64) ([]sim.Result, error) {
			results := make([]sim.Result, len(phase))
			return results, runCells(phase, nil, results, workers, nil, observe)
		},
		func(promoted int) {
			stats = SweepStats{SampledCells: len(cells), PromotedCells: promoted}
			total += promoted
		})
	return m, points, stats, err
}

// runSweep is the one body of every sweep, serial or served. A
// full-fidelity sweep runs its cells in one phase. A sampled sweep runs
// two: every cell at sampled fidelity, then the PromoteSet survivors
// (per-workload Pareto frontier plus CI-overlap candidates) re-run at full
// fidelity, with onPromote told the promoted count first. The returned
// points come exclusively from the final full-fidelity phase — a sampled
// estimate can steer the search but never stands in a reported frontier —
// while the manifest merges both phases (sampled cells under their
// "@sampled" keys). runPhase runs one phase's cells and returns their
// results in cell order; it receives the workloads' trace fingerprints.
func runSweep(cells []Cell, sampled bool, runPhase func([]Cell, map[string]uint64) ([]sim.Result, error), onPromote func(promoted int)) (*manifest.Manifest, []Point, error) {
	traceFPs, err := traceFingerprints(cells)
	if err != nil {
		return nil, nil, err
	}
	results, err := runPhase(cells, traceFPs)
	if err != nil {
		return nil, nil, err
	}
	points := pointsOf(cells, results)

	allCells, allResults := cells, results
	if sampled {
		promoted := PromoteSet(points)
		full := make([]Cell, len(promoted))
		for i, idx := range promoted {
			full[i] = cells[idx].Promote()
		}
		onPromote(len(full))
		fullResults, err := runPhase(full, traceFPs)
		if err != nil {
			return nil, nil, err
		}
		points = pointsOf(full, fullResults)
		allCells = append(append([]Cell(nil), cells...), full...)
		allResults = append(append([]sim.Result(nil), results...), fullResults...)
	}

	m, err := MergeCells(allCells, allResults, traceFPs)
	if err != nil {
		return nil, nil, fmt.Errorf("merge: %w", err)
	}
	return m, points, nil
}

// traceFingerprints resolves each workload's trace once, through the
// process-wide singleflight trace cache, and returns its fingerprint: the
// fingerprints key the result cache and the manifest provenance.
func traceFingerprints(cells []Cell) (map[string]uint64, error) {
	fps := map[string]uint64{}
	for _, c := range cells {
		if _, ok := fps[c.Workload]; ok {
			continue
		}
		tr, err := sim.SharedTrace(c.Workload, c.Warmup+c.Ops, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", c.Workload, err)
		}
		fps[c.Workload] = tr.Fingerprint()
	}
	return fps, nil
}

// runCells runs cells[i] for each i in idx (every cell when idx is nil)
// through the sharded cell runner (runFn nil runs sim.Run) and stores its
// result in results[i]. The runner sees each cell under its index in
// cells, so runFn, onCell and a failed cell's error name it by its
// position in the phase.
func runCells(cells []Cell, idx []int, results []sim.Result, workers int, runFn func(sim.Cell) (sim.Result, error), onCell func(sim.CellResult)) error {
	if idx == nil {
		idx = make([]int, len(cells))
		for i := range idx {
			idx[i] = i
		}
	}
	simCells := make([]sim.Cell, len(idx))
	for k, i := range idx {
		c := cells[i]
		spec, err := c.Spec()
		if err != nil {
			return err
		}
		simCells[k] = sim.Cell{App: c.Workload, Model: c.Model, Index: i, Spec: spec}
	}
	cellResults := sim.RunCells(simCells, workers, runFn, onCell)
	if err := sim.JoinCellErrors(cellResults); err != nil {
		return err
	}
	for _, r := range cellResults {
		results[r.Cell.Index] = r.Result
	}
	return nil
}

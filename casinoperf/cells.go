package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"casino/internal/sim"
)

// memoryApps are the long-stall applications whose footprints exceed the
// 1 MiB L2, so most simulated cycles are fast-forwarded.
var memoryApps = []string{"mcf", "milc", "lbm", "libquantum", "omnetpp", "soplex"}

// refSeed is the seed the checked-in cells-memory reference was made at.
const refSeed = 1

// cells runs every model over the memory-bound applications through the
// sharded cell runner. One operation is one cell.
type cells struct {
	apps        []string
	ops, warmup int
	seed        int64
	workers     int
	ref         string // checked-in reference outputs (seed refSeed)
	writeRef    string
	first       []sim.CellResult
	firstCycles uint64
}

func newCells(cfg config) *cells {
	return &cells{
		apps: cfg.size.apps, ops: cfg.size.ops, warmup: cfg.size.warmup,
		seed: cfg.seed, workers: cfg.workers,
		ref:      filepath.Join(cfg.repo, "casinoperf", "ref", "cells-memory.seed1.json"),
		writeRef: cfg.writeRef,
	}
}

func (c *cells) setup(b *bench, parent int) error {
	return genTraces(b, parent, c.apps, c.ops+c.warmup, c.seed)
}

func (c *cells) repeat(b *bench, parent int) (rep, error) {
	var list []sim.Cell
	for _, app := range c.apps {
		for _, model := range sim.Models() {
			list = append(list, sim.Cell{App: app, Model: model, Index: len(list), Spec: sim.Spec{
				Model: model, Workload: app, Ops: c.ops, Warmup: c.warmup, Seed: c.seed,
			}})
		}
	}
	var (
		mu  sync.Mutex
		ops []float64
		out []sim.CellResult
	)
	runFn := func(cell sim.Cell) (sim.Result, error) {
		id := b.spans.start("run."+cell.Model, parent)
		t0 := time.Now()
		res, err := sim.Run(cell.Spec)
		ms := msSince(t0)
		b.spans.end(id)
		if err == nil {
			mu.Lock()
			ops = append(ops, ms)
			mu.Unlock()
		}
		return res, err
	}
	r, err := inProcess(func() error {
		out = sim.RunCells(list, c.workers, runFn, nil)
		return sim.JoinCellErrors(out)
	})
	r.ops = ops
	r.failed = len(list) - len(ops)
	if err != nil {
		return r, err
	}
	r.digest = digest(out)
	if c.first == nil {
		c.first, c.firstCycles = out, r.simCycles
	}
	return r, nil
}

// cellRef is one cell's reference outputs.
type cellRef struct {
	App       string  `json:"app"`
	Model     string  `json:"model"`
	Cycles    uint64  `json:"cycles"`
	IPC       float64 `json:"ipc"`
	FFSkipped float64 `json:"ff_skipped_cycles"`
}

// cellsRef is the checked-in reference file.
type cellsRef struct {
	Seed   int64     `json:"seed"`
	Ops    int       `json:"ops"`
	Warmup int       `json:"warmup"`
	Cells  []cellRef `json:"cells"`
}

func (c *cells) outputs() cellsRef {
	ref := cellsRef{Seed: c.seed, Ops: c.ops, Warmup: c.warmup}
	for _, o := range c.first {
		ref.Cells = append(ref.Cells, cellRef{
			App: o.Cell.App, Model: o.Cell.Model, Cycles: o.Result.Cycles,
			IPC: o.Result.IPC, FFSkipped: o.Result.Extra["ff.skipped_cycles"],
		})
	}
	return ref
}

// check compares repeat 1 with the reference file when the run matches its
// seed and size, and reports the fast-forward and wakeup-queue counts.
func (c *cells) check(b *bench, _ int) {
	b.emit("norm_ipc_mape", 0, "frac", 0) // full fidelity throughout
	if c.first == nil {
		return
	}
	var skipped, wakeups float64
	for _, o := range c.first {
		skipped += o.Result.Extra["ff.skipped_cycles"]
		wakeups += o.Result.Extra["evq.wakeups"]
	}
	b.emit("count.ff_skipped_frac", skipped/float64(c.firstCycles), "frac", len(c.first))
	b.emit("count.evq_wakeups_per_kcycle", wakeups/(float64(c.firstCycles)/1000), "count", len(c.first))

	got := c.outputs()
	if c.writeRef != "" {
		b.gate("write reference", writeJSON(c.writeRef, got))
	}
	if c.seed != refSeed {
		return
	}
	raw, err := os.ReadFile(c.ref)
	if err != nil {
		b.gate("read reference", err)
		return
	}
	var want cellsRef
	if err := json.Unmarshal(raw, &want); err != nil {
		b.gate("read reference", err)
		return
	}
	if want.Ops != got.Ops || want.Warmup != got.Warmup {
		return // a different size: only repeat identity applies
	}
	b.gate("cells match reference", compareCells(want, got))
}

func compareCells(want, got cellsRef) error {
	if len(want.Cells) != len(got.Cells) {
		return fmt.Errorf("%d cells, reference has %d", len(got.Cells), len(want.Cells))
	}
	for i, w := range want.Cells {
		if g := got.Cells[i]; g != w {
			return fmt.Errorf("cell %s/%s: got %+v, reference %+v", w.App, w.Model, g, w)
		}
	}
	return nil
}

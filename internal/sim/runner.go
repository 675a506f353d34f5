package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell is one unit of sharded work: a fully resolved Spec plus the
// identity the caller wants failures reported under. Index is
// caller-defined (a figure's column index, a sweep grid position) and is
// echoed back untouched, so results can be scattered into whatever shape
// the caller maintains.
type Cell struct {
	App   string
	Model string
	Index int
	Spec  Spec
}

// CellResult pairs a cell with its outcome. Exactly one of Result/Err is
// meaningful: Err != nil means the run failed and Result is the zero
// value.
type CellResult struct {
	Cell   Cell
	Result Result
	Err    error
}

// RunCells executes every cell on a bounded worker pool and returns the
// outcomes positionally (out[i] is cells[i]'s). It is the sharded runner
// behind every figure matrix and the DSE sweep service.
//
//   - workers <= 0 sizes the pool to runtime.GOMAXPROCS(0).
//   - runFn executes one cell; nil means Run(c.Spec). The DSE engine
//     injects a cache-wrapping runFn here.
//   - onCell, when non-nil, observes each completed cell. Calls are
//     serialized (never concurrent), but arrive in completion order, not
//     submission order.
//
// A failing cell never poisons its siblings: every other cell still runs
// to completion and keeps its own result or error. A cell whose runFn
// panics fails with an error naming the panic value. JoinCellErrors
// aggregates the failures into one error naming each failed (app, model)
// cell.
func RunCells(cells []Cell, workers int, runFn func(Cell) (Result, error), onCell func(CellResult)) []CellResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if runFn == nil {
		runFn = func(c Cell) (Result, error) { return Run(c.Spec) }
	}
	out := make([]CellResult, len(cells))
	var (
		mu  sync.Mutex // serializes onCell
		wg  sync.WaitGroup
		sem = make(chan struct{}, workers)
	)
	for i, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c Cell) {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := runCell(runFn, c)
			if err != nil {
				err = fmt.Errorf("cell (%s, %s[%d]): %w", c.App, c.Model, c.Index, err)
			}
			out[i] = CellResult{Cell: c, Result: r, Err: err}
			if onCell != nil {
				mu.Lock()
				onCell(out[i])
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	return out
}

// cellPanics counts, process-wide, the cells whose panic runCell
// recovered.
var cellPanics atomic.Uint64

// CellPanics returns the process-wide number of cells whose run panicked
// and that RunCells turned into the cell's error. casino-server exports it
// as casino_cell_panics_total: any non-zero value is a model bug.
func CellPanics() uint64 { return cellPanics.Load() }

// runCell runs one cell, turning a panic into the cell's error so that a
// model bug fails its own cell instead of the whole process.
func runCell(runFn func(Cell) (Result, error), c Cell) (r Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			cellPanics.Add(1)
			r, err = Result{}, fmt.Errorf("panic: %v", p)
		}
	}()
	return runFn(c)
}

// JoinCellErrors folds every failed cell's error into one (nil when all
// cells succeeded).
func JoinCellErrors(results []CellResult) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return errors.Join(errs...)
}

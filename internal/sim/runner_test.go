package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunCellsErrorIsolation: a cell that fails must surface an error
// naming its (app, model) identity, and every sibling cell must still run
// to completion and keep its own result.
func TestRunCellsErrorIsolation(t *testing.T) {
	cells := []Cell{
		{App: "mcf", Model: ModelInO, Index: 0, Spec: Spec{Model: ModelInO, Workload: "mcf", Ops: 2000, Warmup: 500, Seed: 1}},
		{App: "mcf", Model: "no-such-model", Index: 1, Spec: Spec{Model: "no-such-model", Workload: "mcf", Ops: 2000, Warmup: 500, Seed: 1}},
		{App: "milc", Model: ModelInO, Index: 2, Spec: Spec{Model: ModelInO, Workload: "milc", Ops: 2000, Warmup: 500, Seed: 1}},
	}
	results := RunCells(cells, 2, nil, nil)
	if len(results) != len(cells) {
		t.Fatalf("got %d results, want %d", len(results), len(cells))
	}
	if results[1].Err == nil {
		t.Fatalf("bad-model cell did not fail")
	}
	if msg := results[1].Err.Error(); !strings.Contains(msg, "mcf") || !strings.Contains(msg, "no-such-model") {
		t.Errorf("error does not name the (app, model) cell: %q", msg)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("sibling cell %d poisoned: %v", i, results[i].Err)
		}
		if results[i].Result.Instructions == 0 {
			t.Errorf("sibling cell %d has no result", i)
		}
	}
	err := JoinCellErrors(results)
	if err == nil {
		t.Fatal("JoinCellErrors returned nil despite a failed cell")
	}
	if !strings.Contains(err.Error(), "cell (mcf, no-such-model[1])") {
		t.Errorf("joined error missing cell identity: %q", err)
	}
}

// TestRunCellsMoreCellsThanWorkers exercises the bounded pool with far
// more cells than workers (run under -race in CI): positional results,
// serialized onCell callbacks, and an injected runFn.
func TestRunCellsMoreCellsThanWorkers(t *testing.T) {
	const n = 16
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{App: fmt.Sprintf("app%d", i), Model: "fake", Index: i}
	}
	var running, peak, calls atomic.Int64
	seen := map[int]bool{} // onCell is serialized; no extra locking needed
	results := RunCells(cells, 2,
		func(c Cell) (Result, error) {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			defer running.Add(-1)
			if c.Index%5 == 3 {
				return Result{}, errors.New("synthetic failure")
			}
			return Result{Instructions: uint64(c.Index + 1)}, nil
		},
		func(r CellResult) {
			calls.Add(1)
			if seen[r.Cell.Index] {
				t.Errorf("cell %d observed twice", r.Cell.Index)
			}
			seen[r.Cell.Index] = true
		})
	if p := peak.Load(); p > 2 {
		t.Errorf("pool ran %d cells concurrently, want <= 2", p)
	}
	if calls.Load() != n {
		t.Errorf("onCell saw %d cells, want %d", calls.Load(), n)
	}
	for i, r := range results {
		if r.Cell.Index != i {
			t.Fatalf("result %d carries cell %d: not positional", i, r.Cell.Index)
		}
		if i%5 == 3 {
			if r.Err == nil {
				t.Errorf("cell %d: want synthetic failure", i)
			}
			continue
		}
		if r.Err != nil || r.Result.Instructions != uint64(i+1) {
			t.Errorf("cell %d: got (%v, %v)", i, r.Result.Instructions, r.Err)
		}
	}
}

// TestRunCellsPanicIsolation: a cell whose run panics fails with an error
// naming the cell and the panic value, and adds exactly one to
// CellPanics; its siblings keep their results.
func TestRunCellsPanicIsolation(t *testing.T) {
	panics := CellPanics()
	cells := make([]Cell, 4)
	for i := range cells {
		cells[i] = Cell{App: fmt.Sprintf("app%d", i), Model: "fake", Index: i}
	}
	results := RunCells(cells, 2, func(c Cell) (Result, error) {
		if c.Index == 1 {
			panic("kernel invariant broken")
		}
		return Result{Instructions: uint64(c.Index + 1)}, nil
	}, nil)
	for i, r := range results {
		if i == 1 {
			if r.Err == nil {
				t.Fatal("panicking cell reported no error")
			}
			if msg := r.Err.Error(); !strings.Contains(msg, "cell (app1, fake[1])") || !strings.Contains(msg, "kernel invariant broken") {
				t.Errorf("error must name the cell and the panic value: %q", msg)
			}
			continue
		}
		if r.Err != nil || r.Result.Instructions != uint64(i+1) {
			t.Errorf("sibling cell %d: got (%v, %v)", i, r.Result.Instructions, r.Err)
		}
	}
	if d := CellPanics() - panics; d != 1 {
		t.Errorf("CellPanics grew by %d, want 1", d)
	}
}

package dse

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"casino/internal/manifest"
)

// Small run window: engine tests care about orchestration, not IPC.
func testGrid(models []string, geoms [][2]int, apps ...string) Grid {
	return Grid{
		Models:     models,
		Workloads:  apps,
		Ops:        1500,
		Warmup:     300,
		Seed:       1,
		Geometries: geoms,
	}
}

func waitJob(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := j.Snapshot()
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish: %+v", j.ID, j.Snapshot())
	return Status{}
}

func encodeManifest(t *testing.T, m *manifest.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole determinism property: a sweep sharded across workers must
// produce a manifest byte-identical to a strictly serial run of the same
// cells.
func TestShardedMatchesSerial(t *testing.T) {
	g := testGrid([]string{"ino", "casino"}, [][2]int{{2, 1}, {4, 2}}, "mcf")

	e := NewEngine(4, 0)
	defer e.Close()
	job, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, job)
	if st.State != StateDone {
		t.Fatalf("job failed: %+v", st)
	}
	if st.CellsDone != st.CellsTotal || st.CellsTotal != 3 {
		t.Fatalf("progress wrong: %+v", st)
	}
	sharded, ok := job.Manifest()
	if !ok {
		t.Fatal("no manifest on done job")
	}

	serial, _, err := RunGrid(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := manifest.Compare(serial, sharded, manifest.CompareOptions{
		Default: manifest.Tolerance{Rel: 0, Abs: 1e-300},
	}); len(diffs) != 0 {
		t.Errorf("sharded vs serial drift: %v", diffs)
	}
	if !bytes.Equal(encodeManifest(t, serial), encodeManifest(t, sharded)) {
		t.Error("sharded and serial manifests are not byte-identical")
	}
}

// Satellite: two overlapping sweeps back-to-back. The second must report
// cache hits for every shared cell, and its manifest must be bitwise
// equal to the same grid run cold (cache reuse must not perturb results).
func TestOverlappingSweepsHitCacheBitIdentical(t *testing.T) {
	gridA := testGrid([]string{"ino", "casino"}, [][2]int{{2, 1}, {4, 2}}, "mcf")
	gridB := testGrid([]string{"casino", "specino"}, [][2]int{{2, 1}, {4, 2}}, "mcf")
	// Shared cells: casino[ws2,so1] and casino[ws4,so2].

	e := NewEngine(4, 0)
	defer e.Close()
	jobA, err := e.Submit(gridA)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, jobA); st.State != StateDone {
		t.Fatalf("sweep A failed: %+v", st)
	}
	jobB, err := e.Submit(gridB)
	if err != nil {
		t.Fatal(err)
	}
	stB := waitJob(t, jobB)
	if stB.State != StateDone {
		t.Fatalf("sweep B failed: %+v", stB)
	}
	if stB.CacheHits != 2 {
		t.Errorf("sweep B cache hits = %d, want 2 (the shared casino cells)", stB.CacheHits)
	}
	warm, _ := jobB.Manifest()

	cold := NewEngine(4, 0)
	defer cold.Close()
	jobCold, err := cold.Submit(gridB)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, jobCold); st.State != StateDone || st.CacheHits != 0 {
		t.Fatalf("cold run wrong: %+v", st)
	}
	coldM, _ := jobCold.Manifest()
	if !bytes.Equal(encodeManifest(t, warm), encodeManifest(t, coldM)) {
		t.Error("cache-hit manifest differs from cold-run manifest")
	}
}

// A resubmission of the identical grid is answered from the cache: every
// cell counts exactly one cache hit, one completed cell and one wall-time
// observation, and no cell counts a miss.
func TestResubmitAllHits(t *testing.T) {
	g := testGrid([]string{"ino", "casino"}, [][2]int{{2, 1}, {4, 2}}, "mcf", "milc")
	e := NewEngine(2, 0)
	defer e.Close()
	j1, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st.State != StateDone || st.CacheHits != 0 {
		t.Fatalf("first run: %+v", st)
	}
	n := len(j1.Cells)
	if n != 6 {
		t.Fatalf("grid expanded to %d cells, want 6", n)
	}
	// The cold run misses once per cell and hits nothing.
	before := engineSeries(t, e)
	for series, want := range map[string]int{
		"casino_result_cache_hits_total":   0,
		"casino_result_cache_misses_total": n,
		"casino_cells_completed_total":     n,
		"casino_cell_wall_time_ms_count":   n,
	} {
		if got, ok := before[series]; !ok || got != float64(want) {
			t.Errorf("cold run: %s = %v (present %v), want %d", series, got, ok, want)
		}
	}
	j2, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j2)
	if st.State != StateDone || st.CacheHits != n || st.CellsDone != n || len(j2.Cells) != n {
		t.Errorf("resubmit should hit all %d cells: %+v", n, st)
	}
	after := engineSeries(t, e)
	for series, want := range map[string]int{
		"casino_result_cache_hits_total":   n,
		"casino_result_cache_misses_total": 0,
		"casino_cells_completed_total":     n,
		"casino_cell_wall_time_ms_count":   n,
	} {
		got, ok := after[series]
		if !ok {
			t.Errorf("resubmit: %s missing from the scrape", series)
			continue
		}
		if got -= before[series]; got != float64(want) {
			t.Errorf("resubmit moved %s by %v, want %d", series, got, want)
		}
	}
	_, hits, misses := e.CacheStats()
	if hits == 0 || misses == 0 {
		t.Errorf("cache stats not tracking: hits=%d misses=%d", hits, misses)
	}
}

// engineSeries scrapes the engine's /metrics registry into a map from
// series (name plus labels) to value.
func engineSeries(t *testing.T, e *Engine) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := NewTelemetry(e).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// A failing cell fails the job with a named error but never wedges the
// engine; the next job still runs. (Unknown models are rejected at
// Expand, so inject the failure through a cell whose spec is valid but
// whose model the runner rejects at run time via a doctored cell list.)
func TestJobFailureIsIsolated(t *testing.T) {
	e := NewEngine(2, 0)
	defer e.Close()

	g := testGrid([]string{"ino"}, nil, "mcf")
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cells[0].Model = "no-such-model" // valid at submit time, fails in Run
	job := &Job{ID: "sweep-doctored", Grid: g.normalized(), Cells: cells, state: StateQueued}
	e.mu.Lock()
	e.jobs[job.ID] = job
	e.mu.Unlock()
	e.queue <- job

	st := waitJob(t, job)
	if st.State != StateFailed || len(st.Errors) == 0 {
		t.Fatalf("doctored job should fail: %+v", st)
	}
	if _, ok := job.Manifest(); ok {
		t.Error("failed job must not publish a manifest")
	}

	ok, err := e.Submit(testGrid([]string{"ino"}, nil, "milc"))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, ok); st.State != StateDone {
		t.Errorf("engine wedged after failed job: %+v", st)
	}
}

// Close drains: accepted jobs run to completion, later submissions are
// rejected with ErrShuttingDown.
func TestCloseDrains(t *testing.T) {
	e := NewEngine(2, 0)
	job, err := e.Submit(testGrid([]string{"ino"}, nil, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if st := job.Snapshot(); st.State != StateDone {
		t.Errorf("Close did not drain the accepted job: %+v", st)
	}
	if _, err := e.Submit(testGrid([]string{"ino"}, nil, "mcf")); err == nil {
		t.Error("Submit after Close succeeded")
	}
	e.Close() // second Close must be safe
}

func TestSubmitRejectsBadGrid(t *testing.T) {
	e := NewEngine(1, 0)
	defer e.Close()
	if _, err := e.Submit(Grid{Models: []string{"nope"}, Workloads: []string{"mcf"}}); err == nil {
		t.Error("bad grid accepted")
	}
}

package dse

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"casino/internal/manifest"
	"casino/internal/sim"
	"casino/internal/telemetry"
)

// Overload errors: the submission was well-formed but the engine cannot
// accept it right now. The HTTP layer maps these to 503.
var (
	ErrShuttingDown = errors.New("engine is shutting down")
	ErrQueueFull    = errors.New("job queue full")
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one accepted sweep: its expanded cells, live progress counters,
// and — once complete — the merged manifest and Pareto points.
type Job struct {
	ID    string
	Grid  Grid
	Cells []Cell

	workers int // engine pool width, for the ETA forecast

	mu       sync.Mutex
	state    string
	done     int
	total    int // cells across phases; 0 until running (then >= len(Cells))
	sampled  int // cells executed at sampled fidelity (phase one)
	promoted int // sampled cells promoted to a full-fidelity re-run
	hits     int
	errs     []string
	manifest *manifest.Manifest
	points   []Point

	// Progress/telemetry state (wall-clock; never merged into manifests).
	// Per-cell wall times live in each phase's local slice (see runPhase).
	started  time.Time
	finished time.Time
	ewmaMs   float64

	// SSE subscriptions (see progress.go).
	subs     map[int]chan Progress
	subSeq   int
	terminal bool
	final    Progress
}

// Status is a point-in-time snapshot of a job, shaped for the HTTP API.
// On a sampled-first sweep CellsTotal covers both phases; it grows from
// the expansion count to expansion+promoted once the promotion set is
// known (mid-run), mirroring how the work itself is discovered.
type Status struct {
	ID            string   `json:"id"`
	State         string   `json:"state"`
	CellsTotal    int      `json:"cells_total"`
	CellsDone     int      `json:"cells_done"`
	SampledCells  int      `json:"sampled_cells,omitempty"`
	PromotedCells int      `json:"promoted_cells,omitempty"`
	CacheHits     int      `json:"cache_hits"`
	Errors        []string `json:"errors,omitempty"`
}

// totalLocked is the job's cross-phase cell count; the caller holds j.mu.
func (j *Job) totalLocked() int {
	if j.total > 0 {
		return j.total
	}
	return len(j.Cells)
}

// statusLocked assembles the snapshot; the caller holds j.mu.
func (j *Job) statusLocked() Status {
	return Status{
		ID:            j.ID,
		State:         j.state,
		CellsTotal:    j.totalLocked(),
		CellsDone:     j.done,
		SampledCells:  j.sampled,
		PromotedCells: j.promoted,
		CacheHits:     j.hits,
		Errors:        append([]string(nil), j.errs...),
	}
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// Manifest returns the merged sweep manifest, or false while the job has
// not completed successfully.
func (j *Job) Manifest() (*manifest.Manifest, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.manifest, j.state == StateDone && j.manifest != nil
}

// Points returns every completed design point (for the Pareto reducer),
// or false while the job has not completed successfully.
func (j *Job) Points() ([]Point, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return append([]Point(nil), j.points...), true
}

// engineMetrics holds the engine's service-level instruments: lock-free
// atomics bumped on the job/cell paths, snapshot by the telemetry
// registry at scrape time (NewTelemetry). The simulation counters
// (cycles, instructions, eventq totals) aggregate only cells that
// actually simulated — cache hits represent work avoided, not done.
type engineMetrics struct {
	sweepsSubmitted atomic.Uint64
	sweepsDone      atomic.Uint64
	sweepsFailed    atomic.Uint64
	cellsDone       atomic.Uint64
	sampledCells    atomic.Uint64
	promotedCells   atomic.Uint64
	workersBusy     atomic.Int64

	simCycles       atomic.Uint64
	simInstructions atomic.Uint64
	evqWakeups      atomic.Uint64
	evqCoalesced    atomic.Uint64
	ffSkipped       atomic.Uint64

	// cellMs distributes per-cell wall time (cache hits included) for
	// the /metrics p50/p90/p99 summary. Bucketed to 1ms up to 5 minutes.
	cellMs *telemetry.Summary
}

// addCellCounters folds one freshly simulated cell's whole-run counters
// into the service totals.
func (m *engineMetrics) addCellCounters(res sim.Result) {
	m.simCycles.Add(res.Cycles)
	m.simInstructions.Add(res.Instructions)
	m.evqWakeups.Add(uint64(res.Extra["evq.wakeups"]))
	m.evqCoalesced.Add(uint64(res.Extra["evq.coalesced"]))
	m.ffSkipped.Add(uint64(res.Extra["ff.skipped_cycles"]))
}

// Engine is the sweep executor: a FIFO job queue drained by one
// dispatcher that shards each job's cells across a bounded worker pool
// (sized to runtime.NumCPU() by default) through the fingerprint-keyed
// result cache. Jobs run one at a time, each using the full pool;
// submissions during a run queue up behind it.
type Engine struct {
	workers int
	// cache memoizes cell results by spec+trace fingerprint
	// (Cell.CacheKey), so overlapping or repeated sweeps never simulate
	// the same design point twice.
	cache *sim.Memo[string, sim.Result]

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int
	closed bool

	queue   chan *Job
	drained chan struct{}
	started atomic.Bool // dispatcher goroutine is live: the readiness gate

	met engineMetrics
}

// DefaultResultCacheSize bounds the result cache. A sweep cell's Result is
// a few KiB of flattened metrics, so thousands are cheap to keep resident.
const DefaultResultCacheSize = 4096

// NewEngine starts an engine with the given pool width (<= 0 means
// runtime.NumCPU()) and result-cache capacity (<= 0 means
// DefaultResultCacheSize). Callers own the engine's lifecycle and must
// Close it to drain.
func NewEngine(workers, cacheSize int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if cacheSize <= 0 {
		cacheSize = DefaultResultCacheSize
	}
	e := &Engine{
		workers: workers,
		cache:   sim.NewMemo[string, sim.Result](cacheSize),
		jobs:    map[string]*Job{},
		queue:   make(chan *Job, 256),
		drained: make(chan struct{}),
	}
	e.met.cellMs = telemetry.NewSummary(5 * 60 * 1000)
	go func() {
		defer close(e.drained)
		e.started.Store(true)
		for job := range e.queue {
			e.runJob(job)
		}
	}()
	return e
}

// Submit validates and expands the grid, enqueues the job, and returns it
// immediately. The returned job's snapshots track execution.
func (e *Engine) Submit(g Grid) (*Job, error) {
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("dse: %w", ErrShuttingDown)
	}
	e.seq++
	job := &Job{
		ID:      fmt.Sprintf("sweep-%04d", e.seq),
		Grid:    g.normalized(),
		Cells:   cells,
		workers: e.workers,
		state:   StateQueued,
	}
	e.jobs[job.ID] = job
	select {
	case e.queue <- job:
	default:
		delete(e.jobs, job.ID)
		e.mu.Unlock()
		return nil, fmt.Errorf("dse: %w (%d pending)", ErrQueueFull, cap(e.queue))
	}
	e.mu.Unlock()
	e.met.sweepsSubmitted.Add(1)
	return job, nil
}

// Job returns the job with the given id.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs returns every accepted job sorted by id (submission order — ids
// are zero-padded sequence numbers). Backs GET /v1/sweeps.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	out := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Workers returns the pool width the engine shards cells across.
func (e *Engine) Workers() int { return e.workers }

// QueueDepth returns the number of jobs waiting behind the dispatcher.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// WorkersBusy returns how many pool slots are executing a cell right now.
func (e *Engine) WorkersBusy() int { return int(e.met.workersBusy.Load()) }

// Ready reports whether the engine is accepting and executing sweeps:
// the dispatcher is up and Close has not begun. Backs GET /readyz —
// distinct from liveness, which is true the moment the process serves
// HTTP.
func (e *Engine) Ready() bool {
	return e.started.Load() && !e.Draining()
}

// Draining reports whether Close has been called.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// CacheStats exposes the result cache's counters.
func (e *Engine) CacheStats() (entries int, hits, misses uint64) {
	return e.cache.Stats()
}

// Close drains the engine: no new submissions are accepted, every already
// accepted job runs to completion (in-flight cells are never abandoned,
// and every SSE subscriber receives its job's terminal event before the
// queue reports drained), and Close returns once the queue is empty. Safe
// to call once.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.drained
		return
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	<-e.drained
}

// runJob executes one job's cells on the worker pool, in the phases
// runSweep sets out, and publishes the outcome.
func (e *Engine) runJob(job *Job) {
	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.total = len(job.Cells)
	job.publishLocked(job.started)
	job.mu.Unlock()

	m, points, err := runSweep(job.Cells, job.Grid.Sampling != nil,
		func(cells []Cell, traceFPs map[string]uint64) ([]sim.Result, error) {
			return e.runPhase(job, cells, traceFPs)
		},
		func(promoted int) {
			e.met.sampledCells.Add(uint64(len(job.Cells)))
			e.met.promotedCells.Add(uint64(promoted))
			job.mu.Lock()
			job.sampled = len(job.Cells)
			job.promoted = promoted
			job.total = len(job.Cells) + promoted
			job.publishLocked(time.Now())
			job.mu.Unlock()
		})
	if err != nil {
		e.met.sweepsFailed.Add(1)
		job.mu.Lock()
		job.state = StateFailed
		job.finished = time.Now()
		job.errs = append(job.errs, err.Error())
		job.publishLocked(job.finished)
		job.mu.Unlock()
		return
	}
	e.met.sweepsDone.Add(1)
	job.mu.Lock()
	job.manifest = m
	job.points = points
	job.state = StateDone
	job.finished = time.Now()
	job.publishLocked(job.finished)
	job.mu.Unlock()
}

// runPhase runs one phase's cells through the result cache and returns
// their results in cell order. The job goroutine answers every cell whose
// result is already cached; only the rest go to the worker pool, where a
// cell another job is computing joins that computation. Both paths count
// each cell the same way: its wall time, its hit and its completion.
func (e *Engine) runPhase(job *Job, cells []Cell, traceFPs map[string]uint64) ([]sim.Result, error) {
	results := make([]sim.Result, len(cells))
	keys := make([]string, len(cells))
	var misses []int
	for i, c := range cells {
		keys[i] = c.CacheKey(traceFPs[c.Workload])
		start := time.Now()
		res, ok := e.cache.Peek(keys[i])
		if !ok {
			misses = append(misses, i)
			continue
		}
		results[i] = res
		ms := msSince(start)
		e.met.cellMs.Observe(ms)
		e.cellDone(job, ms, true)
	}
	if len(misses) == 0 {
		return results, nil
	}
	cellMs := make([]float64, len(cells))
	hits := make([]bool, len(cells))
	runFn := func(sc sim.Cell) (sim.Result, error) {
		e.met.workersBusy.Add(1)
		defer e.met.workersBusy.Add(-1)
		start := time.Now()
		res, hit, err := e.cache.Do(keys[sc.Index], func() (sim.Result, error) {
			return sim.Run(sc.Spec)
		})
		ms := msSince(start)
		// Safe: one writer per index, read by onCell after it returns.
		cellMs[sc.Index], hits[sc.Index] = ms, hit
		e.met.cellMs.Observe(ms)
		if !hit && err == nil {
			e.met.addCellCounters(res)
		}
		return res, err
	}
	onCell := func(r sim.CellResult) {
		e.cellDone(job, cellMs[r.Cell.Index], hits[r.Cell.Index])
	}
	return results, runCells(cells, misses, results, e.workers, runFn, onCell)
}

// cellDone counts one completed cell: the service total, and the job's
// hits, progress and cell-time EWMA, published to its subscribers.
func (e *Engine) cellDone(job *Job, ms float64, hit bool) {
	e.met.cellsDone.Add(1)
	job.mu.Lock()
	if hit {
		job.hits++
	}
	job.done++
	job.observeCellLocked(ms)
	job.publishLocked(time.Now())
	job.mu.Unlock()
}

// msSince is the wall time since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

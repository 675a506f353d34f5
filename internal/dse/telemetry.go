package dse

import (
	"casino/internal/sim"
	"casino/internal/telemetry"
)

// NewTelemetry builds the service metrics registry for an engine: the
// full /metrics surface of casino-server. Everything is collected at
// scrape time from the engine's lock-free instrument struct (or the
// result cache's existing counters), so scraping never contends with the
// simulation hot path and — critically — never touches a stats.Registry,
// run manifest, or anything else on the golden-gated result path.
//
// Instrument inventory (see DESIGN.md "Service telemetry"):
//
//	casino_cell_wall_time_ms        summary: per-cell wall time, p50/p90/p99
//	casino_engine_queue_depth       gauge:   sweeps queued behind the dispatcher
//	casino_engine_workers           gauge:   pool width
//	casino_engine_workers_busy      gauge:   pool slots executing a cell now
//	casino_engine_worker_utilization gauge:  busy/width, 0..1
//	casino_sweeps_submitted_total   counter: accepted submissions
//	casino_sweeps_completed_total   counter: by terminal state {state="done"|"failed"}
//	casino_cells_completed_total    counter: cells finished (hits included)
//	casino_sampled_cells_total      counter: cells run at sampled fidelity
//	casino_promoted_cells_total     counter: sampled cells promoted to full
//	casino_result_cache_entries     gauge:   resident results
//	casino_result_cache_hits_total  counter: simulations avoided
//	casino_result_cache_misses_total counter: simulations performed
//	casino_sim_cycles_total         counter: simulated cycles (cold cells only)
//	casino_sim_instructions_total   counter: committed instructions (cold cells)
//	casino_eventq_wakeups_total     counter: eventq registrations across cells
//	casino_eventq_coalesced_total   counter: eventq wakeups absorbed heap-free
//	casino_ff_skipped_cycles_total  counter: cycles fast-forwarded across cells
//	casino_cell_panics_total        counter: cells whose run panicked (process-wide)
//	go_* / process_cpus             Go runtime family (RegisterGoRuntime)
func NewTelemetry(e *Engine) *telemetry.Registry {
	r := telemetry.NewRegistry()

	r.RegisterSummary("casino_cell_wall_time_ms",
		"Wall time per completed sweep cell in milliseconds (cache hits included).",
		e.met.cellMs)
	r.GaugeFunc("casino_engine_queue_depth",
		"Sweep jobs queued behind the dispatcher.",
		func() float64 { return float64(e.QueueDepth()) })
	r.GaugeFunc("casino_engine_workers",
		"Worker pool width cells are sharded across.",
		func() float64 { return float64(e.Workers()) })
	r.GaugeFunc("casino_engine_workers_busy",
		"Pool slots currently executing a cell.",
		func() float64 { return float64(e.WorkersBusy()) })
	r.GaugeFunc("casino_engine_worker_utilization",
		"Fraction of the worker pool currently busy (0..1).",
		func() float64 { return float64(e.WorkersBusy()) / float64(e.Workers()) })

	r.CounterFunc("casino_sweeps_submitted_total",
		"Sweep submissions accepted by the engine.",
		func() float64 { return float64(e.met.sweepsSubmitted.Load()) })
	r.CounterFunc("casino_sweeps_completed_total",
		"Sweeps reaching a terminal state.",
		func() float64 { return float64(e.met.sweepsDone.Load()) },
		telemetry.Label{Name: "state", Value: StateDone})
	r.CounterFunc("casino_sweeps_completed_total",
		"Sweeps reaching a terminal state.",
		func() float64 { return float64(e.met.sweepsFailed.Load()) },
		telemetry.Label{Name: "state", Value: StateFailed})
	r.CounterFunc("casino_cells_completed_total",
		"Sweep cells completed (cache hits included).",
		func() float64 { return float64(e.met.cellsDone.Load()) })
	r.CounterFunc("casino_sampled_cells_total",
		"Sweep cells executed at sampled fidelity (phase one of sampled-first sweeps).",
		func() float64 { return float64(e.met.sampledCells.Load()) })
	r.CounterFunc("casino_promoted_cells_total",
		"Sampled cells promoted to a full-fidelity re-run (Pareto or CI-overlap survivors).",
		func() float64 { return float64(e.met.promotedCells.Load()) })

	r.GaugeFunc("casino_result_cache_entries",
		"Results resident in the spec+trace fingerprint cache.",
		func() float64 { entries, _, _ := e.CacheStats(); return float64(entries) })
	r.CounterFunc("casino_result_cache_hits_total",
		"Cell simulations avoided by the result cache.",
		func() float64 { _, hits, _ := e.CacheStats(); return float64(hits) })
	r.CounterFunc("casino_result_cache_misses_total",
		"Cell simulations executed on a cache miss.",
		func() float64 { _, _, misses := e.CacheStats(); return float64(misses) })

	r.CounterFunc("casino_sim_cycles_total",
		"Simulated cycles across freshly executed cells.",
		func() float64 { return float64(e.met.simCycles.Load()) })
	r.CounterFunc("casino_sim_instructions_total",
		"Committed instructions across freshly executed cells.",
		func() float64 { return float64(e.met.simInstructions.Load()) })
	r.CounterFunc("casino_eventq_wakeups_total",
		"Event-queue wakeup registrations aggregated across cells.",
		func() float64 { return float64(e.met.evqWakeups.Load()) })
	r.CounterFunc("casino_eventq_coalesced_total",
		"Event-queue wakeups absorbed without a heap push, across cells.",
		func() float64 { return float64(e.met.evqCoalesced.Load()) })
	r.CounterFunc("casino_ff_skipped_cycles_total",
		"Cycles crossed by event-driven fast-forward, across cells.",
		func() float64 { return float64(e.met.ffSkipped.Load()) })
	r.CounterFunc("casino_cell_panics_total",
		"Cells whose run panicked, each recovered into that cell's error (process-wide).",
		func() float64 { return float64(sim.CellPanics()) })

	r.RegisterGoRuntime()
	return r
}

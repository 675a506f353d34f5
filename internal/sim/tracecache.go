package sim

import (
	"casino/internal/mem"
	"casino/internal/trace"
	"casino/internal/workload"
)

// The experiment drivers fan a (app × model) matrix out over all CPUs, and
// every cell of a column replays the *same* workload trace. Generating a
// trace is far more expensive than looking one up, so the harness shares
// generated traces through a process-wide cache, a singleflight Memo: one
// generation per key no matter how many cells ask at once. Cached traces
// are shared across goroutines, which is safe by the trace package's
// read-only contract.

// traceKey identifies one generated trace: the workload profile, the total
// dynamic length (warmup + measured ops), and the generation seed.
type traceKey struct {
	workload string
	n        int
	seed     int64
}

// cachedTrace is a generated trace plus its fingerprint at insertion, which
// CheckIntegrity compares against to enforce the read-only contract, and
// the results of the runMatrix cells simulated on it.
type cachedTrace struct {
	tr *trace.Trace
	fp uint64
	// results memoizes each distinct cell run on tr, so a figure reuses
	// any machine an earlier figure already simulated on this trace. The
	// results live and die with the entry (LRU eviction, Reset): a fresh
	// process, or a run after ResetSharedTraces, simulates every distinct
	// cell once.
	results *Memo[resultKey, Result]
}

// resultKey is one cell's identity on a cached trace: everything Run reads
// from a Spec besides the trace, after Run's defaulting. DisableFastForward
// is part of it because it changes the ff.* and evq.* metrics, and Seed
// because sampled runs place their windows by it.
type resultKey struct {
	model       string
	cfg         modelConfig
	mem         mem.Config
	ops, warmup int
	seed        int64
	sampling    Sampling // normalized; the zero value means full fidelity
	noFF        bool
}

// resultsPerTrace bounds each trace's result memo. One `-fig all` run
// holds 33 distinct cells per trace, twice that with sampled figures at
// the same length.
const resultsPerTrace = 128

// run executes s on the entry's trace, simulating each distinct resultKey
// once; later requests share the first run's Result, whose maps callers
// must treat as read-only. A spec with a TraceSink always runs: its
// output is the event stream, not the Result.
func (ct cachedTrace) run(s Spec) (Result, error) {
	s.Trace = ct.tr
	if s.TraceSink != nil {
		return Run(s)
	}
	d := s.withDefaults()
	mc, err := d.modelConfig()
	if err != nil {
		return Result{}, err
	}
	k := resultKey{model: d.Model, cfg: mc, mem: d.memConfig(), ops: d.Ops, warmup: d.Warmup,
		seed: d.Seed, noFF: d.DisableFastForward}
	if d.Sampling != nil {
		k.sampling = d.Sampling.normalized()
	}
	r, _, err := ct.results.Do(k, func() (Result, error) { return Run(s) })
	return r, err
}

// TraceCache is a concurrency-safe, singleflight, LRU-bounded trace cache.
// The zero value is not usable; use NewTraceCache.
type TraceCache struct {
	*Memo[traceKey, cachedTrace]
}

// DefaultTraceCacheSize bounds the process-wide cache. A full figure sweep
// touches 25 workloads at one (length, seed) point each, so 64 completed
// traces comfortably covers interleaved sweeps at a few sizes.
const DefaultTraceCacheSize = 64

// NewTraceCache returns a cache holding at most max completed traces
// (max <= 0 means DefaultTraceCacheSize).
func NewTraceCache(max int) *TraceCache {
	if max <= 0 {
		max = DefaultTraceCacheSize
	}
	return &TraceCache{NewMemo[traceKey, cachedTrace](max)}
}

// sharedTraces is the process-wide cache used by Run and runMatrix.
var sharedTraces = NewTraceCache(DefaultTraceCacheSize)

// Get returns the trace for (workloadName, n ops, seed), generating it at
// most once per key no matter how many goroutines ask concurrently.
func (tc *TraceCache) Get(workloadName string, n int, seed int64) (*trace.Trace, error) {
	ct, err := tc.entry(workloadName, n, seed)
	return ct.tr, err
}

// entry is Get returning the whole cache entry, result memo included.
func (tc *TraceCache) entry(workloadName string, n int, seed int64) (cachedTrace, error) {
	ct, _, err := tc.Do(traceKey{workloadName, n, seed}, func() (cachedTrace, error) {
		p, err := workload.ByName(workloadName)
		if err != nil {
			return cachedTrace{}, err
		}
		tr := workload.Generate(p, n, seed)
		return cachedTrace{tr, tr.Fingerprint(), NewMemo[resultKey, Result](resultsPerTrace)}, nil
	})
	return ct, err
}

// CheckIntegrity re-fingerprints every resident completed trace and
// reports the keys whose contents changed since insertion — i.e. traces
// some core mutated in violation of the read-only contract.
func (tc *TraceCache) CheckIntegrity() []string {
	var bad []string
	for k, ct := range tc.completed() {
		if ct.tr.Refingerprint() != ct.fp {
			bad = append(bad, k.workload)
		}
	}
	return bad
}

// SharedTrace resolves a trace through the process-wide cache. It is what
// Run uses when a Spec carries no explicit trace, and what runMatrix uses
// to pre-resolve each app's trace once for a whole spec column.
func SharedTrace(workloadName string, n int, seed int64) (*trace.Trace, error) {
	return sharedTraces.Get(workloadName, n, seed)
}

// ResetSharedTraces empties the process-wide cache, and with it every
// memoized cell result (tests, and benchmarks that time trace generation
// or a cold figure).
func ResetSharedTraces() { sharedTraces.Reset() }

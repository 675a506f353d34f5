package sim

import (
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
// CheckIntegrity compares against to enforce the read-only contract.
type cachedTrace struct {
	tr *trace.Trace
	fp uint64
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
	ct, _, err := tc.Do(traceKey{workloadName, n, seed}, func() (cachedTrace, error) {
		p, err := workload.ByName(workloadName)
		if err != nil {
			return cachedTrace{}, err
		}
		tr := workload.Generate(p, n, seed)
		return cachedTrace{tr, tr.Fingerprint()}, nil
	})
	return ct.tr, err
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

// ResetSharedTraces empties the process-wide cache (tests, and benchmarks
// that time trace generation).
func ResetSharedTraces() { sharedTraces.Reset() }

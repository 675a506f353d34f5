// Package ptrace is the unified pipeline-event bus shared by all five core
// models. A core with an installed Recorder emits one canonical Event per
// per-instruction lifecycle milestone (fetch, dispatch, S-IQ pass, issue —
// speculative or in order — complete, commit, squash, flush) plus one
// KindStall event per non-commit cycle carrying the cycle's CPI-stack
// bucket. Sinks (Collector, KanataSink, ChromeSink) consume the stream;
// the CPI accumulator attributes every simulated cycle to exactly one
// bucket, with Check enforcing that the buckets sum to total cycles.
//
// The bus is zero-overhead when off: cores guard every emission with a
// single nil check on their recorder pointer and the CPI accumulator is a
// fixed-size array bump, so the disabled path allocates nothing and stays
// within benchstat noise of a build without tracing.
package ptrace

import (
	"fmt"

	"casino/internal/stats"
)

// Kind identifies a pipeline lifecycle milestone (or a per-cycle stall
// sample) of one dynamic instruction.
type Kind uint8

// Event kinds. Models without a given stage simply never emit it: only
// CASINO emits KindPass (the S-IQ cascade) and KindIssueSpec marks any
// out-of-program-order issue engine (CASINO's S-IQs, OoO's scheduler,
// slice bypass queues, SpecInO's sliding window).
const (
	KindFetch     Kind = iota // entered the front-end dispatch buffer
	KindDispatch              // entered the first scheduling structure
	KindPass                  // passed to the next cascaded queue (CASINO)
	KindIssue                 // issued by an in-order engine
	KindIssueSpec             // issued by a speculative/out-of-order engine
	KindComplete              // result available (reported at issue time)
	KindCommit                // retired architecturally
	KindSquash                // discarded by a flush before committing
	KindFlush                 // a flush fired; Seq is the victim sequence
	KindStall                 // one non-commit cycle; Stall holds the bucket
	NumKinds
)

var kindNames = [NumKinds]string{
	"fetch", "dispatch", "pass", "issue", "issueSpec",
	"complete", "commit", "squash", "flush", "stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Bucket is one CPI-stack component. Every simulated cycle is attributed
// to exactly one bucket: BucketBase when at least one instruction
// committed, otherwise the reason the oldest in-flight instruction (the
// commit bottleneck) could not retire. Buckets a model's microarchitecture
// cannot produce simply stay zero.
type Bucket uint8

// CPI-stack buckets.
const (
	BucketBase      Bucket = iota // at least one instruction committed
	BucketSrc                     // oldest instruction waits on a source operand
	BucketExec                    // oldest instruction executing (non-memory latency)
	BucketFU                      // ready at the head but no FU / issue slot
	BucketIQFull                  // pass/dispatch blocked: downstream queue full
	BucketPReg                    // no free physical register
	BucketProdCount               // ProducerCount saturated (conditional renaming)
	BucketROBSQ                   // ROB/SQ/SB full (retirement back-pressure)
	BucketDataBuf                 // data buffer full (conditional renaming IQ issue)
	BucketReplay                  // flush/replay recovery (OSCA or value-check)
	BucketICache                  // pipeline empty: fetch stalled (I-cache, redirect)
	BucketDCache                  // oldest instruction waits on memory access
	BucketDrain                   // trace exhausted, pipeline drained
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"base", "src", "exec", "fu", "iqFull", "preg", "prodCount",
	"robSQ", "dataBuf", "replay", "icache", "dcache", "drain",
}

func (b Bucket) String() string {
	if int(b) < len(bucketNames) {
		return bucketNames[b]
	}
	return fmt.Sprintf("bucket(%d)", uint8(b))
}

// BucketNames returns the manifest-stable bucket names in bucket order.
func BucketNames() []string {
	out := make([]string, NumBuckets)
	for i := range out {
		out[i] = bucketNames[i]
	}
	return out
}

// Event is one pipeline observation. Stall is meaningful only for
// KindStall events; lifecycle events leave it at BucketBase. Complete
// events are emitted at issue time and may carry a future Cycle; sinks
// that need monotonic time (Kanata) sort before encoding.
type Event struct {
	Cycle int64
	Seq   uint64
	Kind  Kind
	Stall Bucket
}

// Sink consumes pipeline events. Emit must not retain the event past the
// call (it is passed by value, so this is automatic); Close flushes any
// buffered encoding.
type Sink interface {
	Emit(Event)
	Close() error
}

// SinkFunc adapts a plain function to a Sink with a no-op Close.
type SinkFunc func(Event)

// Emit calls f.
func (f SinkFunc) Emit(e Event) { f(e) }

// Close is a no-op.
func (f SinkFunc) Close() error { return nil }

// Collector is a Sink that appends every event to a slice (tests, the
// text pipeline viewer).
type Collector struct {
	evs []Event
}

// Emit appends e.
func (c *Collector) Emit(e Event) { c.evs = append(c.evs, e) }

// Close is a no-op.
func (c *Collector) Close() error { return nil }

// Events returns the collected events in emission order.
func (c *Collector) Events() []Event { return c.evs }

// Window restricts which instructions a Recorder forwards, so a long run
// can trace a short region without drowning the sink. The zero value
// passes everything. MaxSeq of 0 means unbounded; SampleEvery of 0 or 1
// means every instruction, k > 1 keeps only sequence numbers divisible by
// k (coarse sampling for whole-run overviews). Per-cycle KindStall and
// KindFlush events always pass: they are cycle-scoped, not
// instruction-scoped.
type Window struct {
	MinSeq      uint64
	MaxSeq      uint64
	SampleEvery uint64
}

func (w Window) contains(seq uint64) bool {
	if seq < w.MinSeq {
		return false
	}
	if w.MaxSeq != 0 && seq >= w.MaxSeq {
		return false
	}
	if w.SampleEvery > 1 && seq%w.SampleEvery != 0 {
		return false
	}
	return true
}

// Recorder is the per-run event tap a core holds. It applies the window
// filter and forwards to the sink. Cores keep a nil *Recorder when tracing
// is off and guard every emission with that nil check, which is the entire
// disabled-path cost.
type Recorder struct {
	sink    Sink
	win     Window
	emitted uint64
}

// NewRecorder wires a sink behind a window filter.
func NewRecorder(sink Sink, win Window) *Recorder {
	return &Recorder{sink: sink, win: win}
}

// Emit forwards e to the sink if e's instruction is inside the window
// (stall and flush events always pass — see Window).
func (r *Recorder) Emit(e Event) {
	if e.Kind != KindStall && e.Kind != KindFlush && !r.win.contains(e.Seq) {
		return
	}
	r.emitted++
	r.sink.Emit(e)
}

// Emitted returns the number of events forwarded to the sink.
func (r *Recorder) Emitted() uint64 { return r.emitted }

// CPI accumulates the per-cycle stall attribution: Counts[b] cycles were
// attributed to bucket b. The accumulator is embedded by value in each
// core (no allocation, no indirection on the hot path).
type CPI struct {
	Counts [NumBuckets]uint64
}

// Add attributes one cycle to b.
func (s *CPI) Add(b Bucket) { s.Counts[b]++ }

// AddN attributes n cycles to b.
func (s *CPI) AddN(b Bucket, n uint64) { s.Counts[b] += n }

// Count returns the cycles attributed to b.
func (s *CPI) Count(b Bucket) uint64 { return s.Counts[b] }

// Total returns the attributed cycle count across all buckets.
func (s *CPI) Total() uint64 {
	var t uint64
	for _, n := range s.Counts {
		t += n
	}
	return t
}

// ScaleDelta multiplies the growth since before by n — the fast-forward
// replay pattern: the caller snapshots the accumulator, runs one embedded
// real cycle, then scales that cycle's attribution across the n remaining
// skipped cycles (they are provably identical).
func (s *CPI) ScaleDelta(before *CPI, n uint64) {
	for i := range s.Counts {
		s.Counts[i] += (s.Counts[i] - before.Counts[i]) * n
	}
}

// Fraction returns bucket b's share of all attributed cycles.
func (s *CPI) Fraction(b Bucket) float64 {
	return stats.Ratio(float64(s.Counts[b]), float64(s.Total()))
}

// Check enforces the CPI-stack invariant: the buckets must sum exactly to
// the simulated cycle count (every cycle attributed to exactly one
// bucket). A mismatch means a model classified a cycle twice or missed
// one.
func (s *CPI) Check(cycles uint64) error {
	if t := s.Total(); t != cycles {
		return fmt.Errorf("ptrace: CPI stack sums to %d cycles, simulated %d", t, cycles)
	}
	return nil
}

// Publish snapshots the stack into the registry as cpi.<bucket> counters
// plus the cpi.cycles total, so the stack flows into run manifests and
// golden gating alongside the legacy stall.* diagnostics.
func (s *CPI) Publish(r *stats.Registry) {
	r.Counter("cpi.cycles", s.Total())
	for b := Bucket(0); b < NumBuckets; b++ {
		r.Counter("cpi."+bucketNames[b], s.Counts[b])
	}
}

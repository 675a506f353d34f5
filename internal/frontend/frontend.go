// Package frontend is the shared in-order fetch/decode engine used by all
// core models. It feeds decoded micro-ops from a trace into a dispatch
// buffer at the configured width, checking every branch against the TAGE
// predictor and BTB.
//
// Wrong paths are modelled as fetch bubbles (standard trace-driven
// practice): a mispredicted branch blocks fetch until the core reports the
// branch resolved, then costs the pipeline refill depth. Instruction-cache
// misses stall fetch for the miss latency beyond the pipelined L1I hit
// time.
package frontend

import (
	"casino/internal/bpred"
	"casino/internal/energy"
	"casino/internal/eventq"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/ptrace"
	"casino/internal/trace"
)

// NoSeq marks the absence of a blocking branch.
const NoSeq = ^uint64(0)

// Config sets the front end's geometry.
type Config struct {
	Width  int // ops fetched+decoded per cycle
	Depth  int // redirect penalty in cycles (pipeline refill)
	BufCap int // dispatch buffer capacity
}

// FrontEnd fetches from a trace with branch prediction and an L1I.
type FrontEnd struct {
	cfg  Config
	rd   *trace.Reader
	pred *bpred.Predictor
	hier *mem.Hierarchy
	acct *energy.Accountant

	pt *ptrace.Recorder // optional pipeline-event recorder (nil = off)
	wq *eventq.Queue    // optional shared wakeup queue (nil = off)

	buf        []*isa.MicroOp // ring of BufCap slots
	head, n    int
	stallUntil int64
	blockedOn  uint64 // seq of the unresolved mispredicted branch
	lastLine   uint64
	haveLine   bool

	Fetched      uint64
	Mispredicts  uint64
	ICacheStalls uint64
}

// New creates a front end reading from rd. acct may be nil (no energy
// accounting).
func New(cfg Config, rd *trace.Reader, pred *bpred.Predictor, hier *mem.Hierarchy, acct *energy.Accountant) *FrontEnd {
	if cfg.Width < 1 || cfg.Depth < 1 || cfg.BufCap < cfg.Width {
		panic("frontend: bad config")
	}
	return &FrontEnd{
		cfg: cfg, rd: rd, pred: pred, hier: hier, acct: acct,
		buf:       make([]*isa.MicroOp, cfg.BufCap),
		blockedOn: NoSeq,
	}
}

// Cycle fetches up to Width ops into the dispatch buffer.
func (f *FrontEnd) Cycle(now int64) {
	if now < f.stallUntil || f.blockedOn != NoSeq {
		return
	}
	for n := 0; n < f.cfg.Width && f.n < f.cfg.BufCap; n++ {
		op := f.rd.Peek(0)
		if op == nil {
			return
		}
		line := op.PC >> mem.BlockBits
		if !f.haveLine || line != f.lastLine {
			done := f.hier.Fetch(op.PC, now)
			if f.acct != nil {
				f.acct.L1Access++
			}
			f.lastLine, f.haveLine = line, true
			hitLat := int64(f.hier.Config().L1Latency)
			if extra := done - now - hitLat; extra > 0 {
				// I-cache miss: bubble for the extra latency, retry then.
				f.stallUntil = now + extra
				f.wq.Wake(f.stallUntil)
				f.ICacheStalls++
				return
			}
		}
		f.rd.Next()
		if i := f.head + f.n; i < len(f.buf) {
			f.buf[i] = op
		} else {
			f.buf[i-len(f.buf)] = op
		}
		f.n++
		f.Fetched++
		if f.pt != nil {
			f.pt.Emit(ptrace.Event{Cycle: now, Seq: op.Seq, Kind: ptrace.KindFetch})
		}
		if f.acct != nil {
			f.acct.Frontend++
		}
		if op.Class == isa.Branch {
			if f.acct != nil {
				f.acct.BpredOps++
			}
			if correct := f.pred.OnBranch(op.PC, op.Taken, op.Target); !correct {
				f.Mispredicts++
				f.blockedOn = op.Seq
				return
			}
			if op.Taken {
				// Redirected fetch: force an I-cache line re-check.
				f.haveLine = false
			}
		}
	}
}

// NextFetchEvent returns the earliest cycle >= now at which Cycle(now)
// could do anything: now when fetch would proceed (or hit the I-cache and
// mutate it), the stall expiry while refilling, and eventq.NoEvent when
// fetch is blocked on something only the core can clear (an unresolved
// mispredicted branch, a full dispatch buffer, an exhausted trace). Those
// unblock through a core cycle's own progress, which the event-driven
// driver never jumps across. The core shell's NextWake pre-check calls it.
func (f *FrontEnd) NextFetchEvent(now int64) int64 {
	if f.blockedOn != NoSeq || f.n >= f.cfg.BufCap || f.rd.Peek(0) == nil {
		return eventq.NoEvent
	}
	if now < f.stallUntil {
		return f.stallUntil
	}
	return now
}

// SetPipeTrace installs (or removes, with nil) a pipeline-event recorder;
// the front end contributes the fetch events of the shared stream.
func (f *FrontEnd) SetPipeTrace(rec *ptrace.Recorder) { f.pt = rec }

// SetWakeQueue attaches the shared wakeup queue; the front end registers
// every stall expiry (I-cache refills, redirect penalties) as it is stored.
func (f *FrontEnd) SetWakeQueue(q *eventq.Queue) { f.wq = q }

// RecyclePredictor returns the branch predictor to bpred's construction
// pool at end of run. The front end must not fetch afterwards.
func (f *FrontEnd) RecyclePredictor() {
	bpred.Recycle(f.pred)
	f.pred = nil
}

// BufLen returns the number of buffered decoded ops.
func (f *FrontEnd) BufLen() int { return f.n }

// Peek returns the i'th buffered op without consuming it (nil if absent).
func (f *FrontEnd) Peek(i int) *isa.MicroOp {
	if i < 0 || i >= f.n {
		return nil
	}
	if j := f.head + i; j < len(f.buf) {
		return f.buf[j]
	} else {
		return f.buf[j-len(f.buf)]
	}
}

// Pop consumes and returns the oldest buffered op (nil if empty).
func (f *FrontEnd) Pop() *isa.MicroOp {
	if f.n == 0 {
		return nil
	}
	op := f.buf[f.head]
	if f.head++; f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
	return op
}

// BranchResolved tells the front end the branch with sequence seq finished
// executing at cycle done. If fetch was blocked on it, fetching resumes
// after the redirect penalty.
func (f *FrontEnd) BranchResolved(seq uint64, done int64) {
	if f.blockedOn != seq {
		return
	}
	f.blockedOn = NoSeq
	f.haveLine = false
	if s := done + int64(f.cfg.Depth); s > f.stallUntil {
		f.stallUntil = s
		f.wq.Wake(s)
	}
}

// Squash flushes the buffer and refetches from sequence number seq,
// resuming after the redirect penalty from cycle now (memory-order
// violation recovery).
func (f *FrontEnd) Squash(seq uint64, now int64) {
	f.rd.Seek(int(seq))
	f.head, f.n = 0, 0
	f.blockedOn = NoSeq
	f.haveLine = false
	if s := now + int64(f.cfg.Depth); s > f.stallUntil {
		f.stallUntil = s
		f.wq.Wake(s)
	}
}

// Blocked reports whether fetch is waiting on a mispredicted branch.
func (f *FrontEnd) Blocked() bool { return f.blockedOn != NoSeq }

// Done reports whether the trace is exhausted and the buffer drained.
func (f *FrontEnd) Done() bool { return f.rd.Done() && f.n == 0 }

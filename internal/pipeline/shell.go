package pipeline

import (
	"casino/internal/bpred"
	"casino/internal/energy"
	"casino/internal/eventq"
	"casino/internal/frontend"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/ptrace"
	"casino/internal/stats"
	"casino/internal/trace"
)

// MaxEntries bounds every structure size a model configuration may ask
// for. Constructors size per-entry arrays (and the wakeup queue) from the
// configuration, so an unbounded size is an out-of-memory crash no
// recover can catch. It is far above every size the repository runs: the
// largest are the 256-entry ROB and PRF of Fig. 10a and the 2,048-entry
// IST of the slice cores.
const MaxEntries = 1 << 16

// Model is what the shell asks of the core that embeds it.
type Model interface {
	// Cycle advances the core by one clock and ends with EndCycle.
	Cycle()
	// State returns the model's part of the progress signature. It returns
	// by value: a pointer passed through this interface would move the
	// caller's snapshot to the heap on every fast-forward attempt.
	State() State
	// CanDispatch reports whether the op at the head of the front end's
	// buffer could dispatch now: the streaming progress the wakeup queue
	// does not track. It has no side effects.
	CanDispatch() bool
}

// Slider is implemented by a model whose scheduling window moves on
// cycles in which it issues nothing (SpecInO), creating issue
// opportunities at times the wakeup queue never saw.
type Slider interface {
	// SlideEvent returns the earliest cycle >= now at which the window
	// could enable an issue, assuming every cycle from now on is idle.
	SlideEvent(now int64) int64
	// Slide advances the window across n skipped idle cycles.
	Slide(n int64)
}

// State is a model's part of the progress signature: the counters and
// occupancies, beyond the shell's own, that a cycle doing any work moves.
// A model fills a prefix and leaves the rest zero.
type State [7]uint64

// signature is the exact progress signature FastForward compares.
type signature struct {
	commits, fetched, issued, l1 uint64
	buf                          int
	st                           State
}

// Shell is the part of a core every model shares: the clock, the commit
// count, the front end, the memory hierarchy, the FU pool, the energy
// accountant, the wakeup queue, the pipeline-event recorder and the CPI
// stack, plus the event-driven clock protocol over them (NextWake,
// FastForward, the progress signature). A model embeds it by value, calls
// Init from its constructor, and keeps only its scheduler and classifier.
type Shell struct {
	Clock   int64  // current cycle
	Commits uint64 // committed micro-ops

	FE   *frontend.FrontEnd
	Hier *mem.Hierarchy
	FUs  *FUPool
	Acct *energy.Accountant
	WQ   *eventq.Queue    // shared wakeup queue (event-driven clock)
	PT   *ptrace.Recorder // optional pipeline-event recorder (nil = off)
	CPI  ptrace.CPI       // per-cycle stall attribution (always on)

	model  Model
	slider Slider        // nil unless the model's window slides
	stalls []*uint64     // counters FastForward scales
	stall0 []uint64      // their values before the embedded cycle
	occ    []*stats.Hist // occupancy histograms FastForward repeats
}

// Init wires the shared state for m, the core embedding s: an FU pool
// scaled to width, a wakeup queue with room for events pending wakeups
// (attached to the FUs, the hierarchy and the front end), and a front end
// width wide and depth deep that reads tr from position start with
// predictor pred (nil = a fresh one).
func (s *Shell) Init(m Model, width, depth, events int, tr *trace.Trace, start int, pred *bpred.Predictor, hier *mem.Hierarchy, acct *energy.Accountant) {
	s.model = m
	s.slider, _ = m.(Slider)
	s.Hier, s.Acct = hier, acct
	s.FUs = ScaledFUPool(width)
	s.WQ = eventq.New(events)
	s.FUs.SetWakeQueue(s.WQ)
	hier.SetWakeQueue(s.WQ)
	rd := tr.Reader()
	rd.Seek(start)
	if pred == nil {
		pred = bpred.NewPredictor()
	}
	s.FE = frontend.New(frontend.Config{Width: width, Depth: depth, BufCap: 2 * width}, rd, pred, hier, acct)
	s.FE.SetWakeQueue(s.WQ)
}

// ReplayCounters registers counters an idle cycle may bump, such as stall
// diagnostics: FastForward scales their growth over the skipped cycles.
func (s *Shell) ReplayCounters(ps ...*uint64) {
	s.stalls = append(s.stalls, ps...)
	s.stall0 = make([]uint64, len(s.stalls))
}

// ReplayHists registers occupancy histograms the model samples once per
// cycle: FastForward repeats their last sample for each skipped cycle. Nil
// histograms (structures a configuration lacks) are skipped.
func (s *Shell) ReplayHists(hs ...*stats.Hist) {
	for _, h := range hs {
		if h != nil {
			s.occ = append(s.occ, h)
		}
	}
}

// Now returns the current cycle.
func (s *Shell) Now() int64 { return s.Clock }

// Committed returns the number of committed micro-ops.
func (s *Shell) Committed() uint64 { return s.Commits }

// Mispredicts returns the front-end mispredict count.
func (s *Shell) Mispredicts() uint64 { return s.FE.Mispredicts }

// WakeStats exposes the shared wakeup queue's activity counters.
func (s *Shell) WakeStats() eventq.Stats { return s.WQ.Stats() }

// SetPipeTrace installs (or removes, with nil) a pipeline-event recorder.
// The front end shares the recorder so fetch events join the same stream.
func (s *Shell) SetPipeTrace(rec *ptrace.Recorder) {
	s.PT = rec
	s.FE.SetPipeTrace(rec)
}

// CPIStack exposes the per-cycle stall attribution accumulated so far.
func (s *Shell) CPIStack() *ptrace.CPI { return &s.CPI }

// Recycle returns pooled resources (the branch predictor) at end of run.
// The core must not be cycled afterwards.
func (s *Shell) Recycle() { s.FE.RecyclePredictor() }

// Emit publishes a lifecycle event of instruction seq when a recorder is
// installed.
func (s *Shell) Emit(cycle int64, seq uint64, k ptrace.Kind) {
	if s.PT != nil {
		s.PT.Emit(ptrace.Event{Cycle: cycle, Seq: seq, Kind: k})
	}
}

// CountFU charges one operation of class c to its execution-unit kind.
func (s *Shell) CountFU(c isa.Class) {
	switch c.FU() {
	case isa.FUFP:
		s.Acct.FPOps++
	case isa.FUAGU:
		s.Acct.AGUOps++
	default:
		s.Acct.IntOps++
	}
}

// EndCycle closes the cycle: it attributes the cycle to CPI bucket b,
// publishes a non-base cycle as a stall event tagged with the culprit
// instruction seq when tracing is on, and advances the clock.
func (s *Shell) EndCycle(b ptrace.Bucket, seq uint64) {
	s.CPI.Add(b)
	if s.PT != nil && b != ptrace.BucketBase {
		s.PT.Emit(ptrace.Event{Cycle: s.Clock, Seq: seq, Kind: ptrace.KindStall, Stall: b})
	}
	s.Clock++
	s.Acct.Cycles++
}

// Signature folds the shell's progress counters and the model's state st
// into one value. The event-driven driver consults the wakeup queue only
// after a cycle that left it unchanged, and the sim package's property
// tests compare it across an event-driven core and a stepped replica.
// Models call it from ProgressSignature with their State: this runs on
// every commit-free cycle, so it must stay a direct call.
func (s *Shell) Signature(st *State) uint64 {
	// A sum of products with distinct odd multipliers: an odd multiplier is
	// invertible modulo 2^64, so a change to any one value always changes
	// the sum, and the multiplies are independent rather than one chain.
	// Several values changing at once cancel only by coincidence, and then
	// FastForward's exact comparison still decides.
	return s.Commits*0xdb9c559891948d23 + s.FE.Fetched*0x78bc927ded35455d +
		s.FUs.IssuedTotal()*0xaad71e75cde2b88f + s.Acct.L1Access*0x6280938ad5a104f3 +
		uint64(s.FE.BufLen())*0xcaa69c1e0798ff49 +
		st[0]*0xb9f5a07176645a03 + st[1]*0xf3f8751c656739af + st[2]*0xcdf6c4e563d8e22d +
		st[3]*0x55b871711a2012f5 + st[4]*0x3ae578fd14e84743 + st[5]*0x55cba8d6b3a3e36d +
		st[6]*0xe6e0d6dede7fa7e1
}

// snapshot fills g in place: it runs twice per fast-forward attempt.
func (s *Shell) snapshot(g *signature) {
	g.commits = s.Commits
	g.fetched = s.FE.Fetched
	g.issued = s.FUs.IssuedTotal()
	g.l1 = s.Acct.L1Access
	g.buf = s.FE.BufLen()
	g.st = s.model.State()
}

// NextWake returns the earliest cycle >= now at which the core might make
// progress, driving the event-driven clock. Two O(1) pre-checks catch the
// streaming progress the wakeup queue deliberately does not track —
// dispatch (the model's own gate) and fetch — and everything else comes
// from the shared queue, on which every stored future cycle was
// registered when it was stored, plus a sliding window's own bound. It
// never walks the scheduler; FastForward's embedded cycle is the progress
// check.
func (s *Shell) NextWake() int64 {
	now := s.Clock
	if s.model.CanDispatch() || s.FE.NextFetchEvent(now) <= now {
		return now
	}
	next := s.WQ.Horizon(now)
	if s.slider != nil {
		if t := s.slider.SlideEvent(now); t < next {
			next = t
		}
	}
	return next
}

// FastForward runs one real cycle of the model and, if that cycle turned
// out idle, jumps the clock toward `to`. The embedded cycle performs the
// exact idle-cycle accounting — occupancy samples, stall diagnostics, CPI
// buckets and the energy accountant's charges — and its deltas are
// replayed in bulk for the skipped cycles. The model's Cycle stays the
// single source of truth; FastForward never re-derives a charge.
//
// It returns false when the embedded cycle changed observable state (the
// signature moved): the cycle stands as a normal, fully accounted cycle
// and nothing was skipped. The event-driven driver attempts jumps
// optimistically, so a bail is routine, not an error. On the idle path the
// jump target is re-clamped by the queue's post-cycle horizon, which sees
// any wakeup the embedded cycle itself registered, and by a sliding
// window's bound.
func (s *Shell) FastForward(to int64) bool {
	var before, after signature
	s.snapshot(&before)
	s.Acct.BeginDelta()
	for i, p := range s.stalls {
		s.stall0[i] = *p
	}
	cpi0 := s.CPI
	s.model.Cycle()
	s.snapshot(&after)
	if after != before {
		return false
	}
	if h := s.WQ.Horizon(s.Clock); h < to {
		to = h
	}
	if s.slider != nil {
		if t := s.slider.SlideEvent(s.Clock); t < to {
			to = t
		}
	}
	n := to - s.Clock
	if n <= 0 {
		return true
	}
	un := uint64(n)
	s.Acct.ScaleDelta(un)
	for i, p := range s.stalls {
		*p += (*p - s.stall0[i]) * un
	}
	s.CPI.ScaleDelta(&cpi0, un)
	for _, h := range s.occ {
		h.Repeat(un)
	}
	if s.slider != nil {
		s.slider.Slide(n)
	}
	s.Clock += n
	return true
}

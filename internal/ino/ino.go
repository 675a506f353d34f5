// Package ino implements the paper's baseline: a 2-wide stall-on-use
// in-order core (§III-A). Instructions issue strictly in program order
// from the head of a FIFO IQ; the pipeline stalls only when the *consumer*
// of a pending value reaches the IQ head (stall-on-use), so independent
// instructions behind a long-latency load keep issuing. A 4-entry
// scoreboard (SCB) window enforces in-order write-back for precise
// exceptions; committed stores drain through a 4-entry store buffer.
package ino

import (
	"fmt"

	"casino/internal/bpred"
	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/lsu"
	"casino/internal/mem"
	"casino/internal/pipeline"
	"casino/internal/ptrace"
	"casino/internal/stats"
	"casino/internal/trace"
)

// Config holds the Table I in-order core parameters.
type Config struct {
	Width      int // superscalar width (issue = commit = fetch)
	IQSize     int // FIFO instruction queue entries
	SCBSize    int // scoreboard window (in-flight issued instructions)
	SBSize     int // store buffer entries
	FrontDepth int // redirect penalty (7-stage pipeline)
}

// DefaultConfig returns the Table I InO configuration.
func DefaultConfig() Config {
	return Config{Width: 2, IQSize: 16, SCBSize: 4, SBSize: 4, FrontDepth: 5}
}

// Validate checks the limits the core is built on: a front end at least
// one op wide and one stage deep, and between one and
// pipeline.MaxEntries entries in the IQ, the SCB window and the store
// buffer (an empty queue never accepts an op, so the run would stall until
// the cycle cap).
func (c Config) Validate() error {
	if c.Width < 1 || c.FrontDepth < 1 {
		return fmt.Errorf("ino: Width and FrontDepth must be positive, got %d and %d", c.Width, c.FrontDepth)
	}
	if c.IQSize < 1 || c.SCBSize < 1 || c.SBSize < 1 {
		return fmt.Errorf("ino: IQSize, SCBSize and SBSize must be positive, got %d, %d and %d",
			c.IQSize, c.SCBSize, c.SBSize)
	}
	if max(c.IQSize, c.SCBSize, c.SBSize) > pipeline.MaxEntries {
		return fmt.Errorf("ino: IQSize, SCBSize and SBSize must be at most %d, got %d, %d and %d",
			pipeline.MaxEntries, c.IQSize, c.SCBSize, c.SBSize)
	}
	return nil
}

type entry struct {
	op     *isa.MicroOp
	done   int64 // result available
	wbDone int64 // in-order write-back completion
}

// entRing is a fixed-capacity FIFO of entries. Both the IQ and the SCB
// window push at the tail and pop at the head every cycle; re-slicing a
// plain []entry from the front makes every append reallocate once the
// backing array is consumed, which dominated the model's allocation count.
type entRing struct {
	buf  []entry
	head int
	n    int
}

func newEntRing(capacity int) entRing { return entRing{buf: make([]entry, capacity)} }

func (r *entRing) len() int { return r.n }

func (r *entRing) at(i int) *entry {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

func (r *entRing) pushBack(e entry) {
	j := r.head + r.n
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	r.buf[j] = e
	r.n++
}

func (r *entRing) popFront() {
	r.buf[r.head] = entry{}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// Core is the baseline in-order core.
type Core struct {
	pipeline.Shell

	cfg Config
	sb  *lsu.StoreQueue

	iq  entRing // dispatched, waiting to issue (FIFO)
	win entRing // issued, waiting for in-order write-back (SCB window)

	regReady [isa.NumArchRegs]int64
	lastWB   int64

	// Structure handles for the energy model.
	hIQ, hSCB, hARF, hSB int

	// Model statistics.
	LoadsForwarded uint64
	IssueStallsSrc uint64 // cycles head stalled on operands (stall-on-use)
	IssueStallsRes uint64 // cycles head stalled on FUs/window/SB

	// Per-structure occupancy histograms, sampled once per cycle.
	OccIQ  *stats.Hist
	OccSCB *stats.Hist
	OccSB  *stats.Hist
}

// New builds an in-order core running the given trace.
func New(cfg Config, tr *trace.Trace, hier *mem.Hierarchy, acct *energy.Accountant) *Core {
	return NewAt(cfg, tr, 0, nil, hier, acct)
}

// NewAt builds a core whose frontend starts at trace position start with an
// injected (possibly pre-trained) branch predictor; pred == nil allocates a
// fresh one. The sampled-simulation driver uses it to open detailed windows
// mid-trace against warmed shared state.
func NewAt(cfg Config, tr *trace.Trace, start int, pred *bpred.Predictor, hier *mem.Hierarchy, acct *energy.Accountant) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg: cfg,
		sb:  lsu.NewStoreQueue(cfg.SBSize),
		iq:  newEntRing(cfg.IQSize),
		win: newEntRing(cfg.SCBSize),

		OccIQ:  stats.NewHist(cfg.IQSize + 1),
		OccSCB: stats.NewHist(cfg.SCBSize + 1),
		OccSB:  stats.NewHist(cfg.SBSize + 1),
	}
	c.Init(c, cfg.Width, cfg.FrontDepth, 2*(cfg.SCBSize+cfg.SBSize)+16, tr, start, pred, hier, acct)
	c.sb.SetWakeQueue(c.WQ)
	c.ReplayCounters(&c.IssueStallsSrc, &c.IssueStallsRes)
	c.ReplayHists(c.OccIQ, c.OccSCB, c.OccSB)
	c.hIQ = acct.Register(energy.Structure{Name: "IQ", Entries: cfg.IQSize, Bits: 64, Ports: 2 * cfg.Width})
	c.hSCB = acct.Register(energy.Structure{Name: "SCB", Entries: cfg.SCBSize, Bits: 48, Ports: 2 * cfg.Width})
	c.hARF = acct.Register(energy.Structure{Name: "ARF", Entries: isa.NumArchRegs, Bits: 64, Ports: 3 * cfg.Width})
	c.hSB = acct.Register(energy.Structure{Name: "SB", Entries: cfg.SBSize, Bits: 112, Ports: 2, CAM: true, TagBits: 40})
	return c
}

// Done reports whether the trace is exhausted and the pipeline drained.
func (c *Core) Done() bool {
	return c.FE.Done() && c.iq.len() == 0 && c.win.len() == 0 && c.sb.Len() == 0
}

// Cycle advances the core by one clock.
func (c *Core) Cycle() {
	now := c.Clock
	committed0 := c.Commits
	c.WQ.Drain(now)
	c.OccIQ.Add(c.iq.len())
	c.OccSCB.Add(c.win.len())
	c.OccSB.Add(c.sb.Len())
	c.retireStores(now)
	c.writeback(now)
	c.issue(now)
	c.dispatch()
	c.FE.Cycle(now)
	c.EndCycle(c.classifyCycle(now, committed0))
}

// classifyCycle decides the cycle's CPI bucket: base if anything
// committed, otherwise why the oldest in-flight instruction has not
// written back yet. Runs after every pipeline stage using pure reads only.
func (c *Core) classifyCycle(now int64, committed0 uint64) (ptrace.Bucket, uint64) {
	if c.Commits > committed0 {
		return ptrace.BucketBase, 0
	}
	if c.win.len() > 0 {
		e := c.win.at(0)
		wb := e.done
		if wb < c.lastWB {
			wb = c.lastWB // in-order write-back slot
		}
		if wb > now {
			if e.op.Class.IsMem() {
				return ptrace.BucketDCache, e.op.Seq
			}
			return ptrace.BucketExec, e.op.Seq
		}
		// Completed head that did not commit: a store blocked on a full
		// store buffer (retirement back-pressure).
		return ptrace.BucketROBSQ, e.op.Seq
	}
	if c.iq.len() > 0 {
		e := c.iq.at(0)
		if !c.srcsReady(e.op, now) {
			return ptrace.BucketSrc, e.op.Seq
		}
		return ptrace.BucketFU, e.op.Seq
	}
	if !c.FE.Done() {
		return ptrace.BucketICache, 0
	}
	return ptrace.BucketDrain, 0
}

// retireStores drains the store buffer head into the L1D.
func (c *Core) retireStores(now int64) {
	if c.sb.HeadRetirable(now) {
		e := c.sb.Head()
		done := c.Hier.Store(e.PC, e.Addr, now)
		c.Acct.L1Access++
		c.sb.StartRetire(done)
	}
	c.sb.PopRetired(now)
}

// writeback commits up to Width completed instructions in order from the
// SCB window. A store needs a free store-buffer entry to commit.
func (c *Core) writeback(now int64) {
	for n := 0; n < c.cfg.Width && c.win.len() > 0; n++ {
		e := c.win.at(0)
		wb := e.done
		if wb < c.lastWB {
			wb = c.lastWB // SCB enforces in-order write-back
		}
		if wb > now {
			return
		}
		if e.op.Class == isa.Store {
			if c.sb.Full() {
				return
			}
			c.sb.Dispatch(e.op.Seq, e.op.PC)
			c.sb.Resolve(e.op.Seq, e.op.Addr, e.op.Size, now, e.done)
			c.sb.Commit(e.op.Seq)
			c.Acct.Inc(c.hSB, energy.Write, 1)
		}
		c.lastWB = wb
		if e.op.HasDst() {
			c.Acct.Inc(c.hARF, energy.Write, 1)
		}
		c.Acct.Inc(c.hSCB, energy.Write, 1)
		c.Emit(now, e.op.Seq, ptrace.KindCommit)
		c.win.popFront()
		c.Commits++
	}
}

// issue examines the IQ head in order and issues ready instructions
// (stall-on-use: the first non-ready instruction blocks all younger ones).
func (c *Core) issue(now int64) {
	for n := 0; n < c.cfg.Width && c.iq.len() > 0; n++ {
		e := c.iq.at(0)
		op := e.op
		c.Acct.Inc(c.hSCB, energy.Read, 1)
		if !c.srcsReady(op, now) {
			c.IssueStallsSrc++
			return
		}
		if c.win.len() >= c.cfg.SCBSize || !c.FUs.CanIssue(op.Class, now) {
			c.IssueStallsRes++
			return
		}
		c.FUs.Issue(op.Class, now)
		c.CountFU(op.Class)
		c.Acct.Inc(c.hIQ, energy.Read, 1)
		c.Acct.Inc(c.hARF, energy.Read, 2)

		done := c.execute(op, now)
		// A completion next cycle needs no wakeup: this issue already makes
		// the current cycle non-idle, so no jump can start before it lands.
		if done > now+1 {
			c.WQ.Wake(done)
		}
		if op.HasDst() {
			c.regReady[op.Dst] = done
		}
		if op.Class == isa.Branch {
			c.FE.BranchResolved(op.Seq, done)
		}
		c.Emit(now, op.Seq, ptrace.KindIssue)
		c.Emit(done, op.Seq, ptrace.KindComplete)
		c.win.pushBack(entry{op: op, done: done})
		c.iq.popFront()
	}
}

// execute computes the completion cycle of op issued at now.
func (c *Core) execute(op *isa.MicroOp, now int64) int64 {
	switch op.Class {
	case isa.Load:
		agu := now + int64(op.Class.ExecLatency())
		// Forward from an older in-flight store (SCB window or SB).
		if c.forwardFromStores(op, now) {
			c.LoadsForwarded++
			return agu + int64(c.Hier.Config().L1Latency)
		}
		done, _ := c.Hier.Load(op.PC, op.Addr, agu)
		c.Acct.L1Access++
		return done
	case isa.Store:
		return now + int64(op.Class.ExecLatency())
	default:
		return now + int64(op.Class.ExecLatency())
	}
}

// forwardFromStores searches older in-flight stores for a value match.
// All older stores have already issued (in-order), so addresses are known.
func (c *Core) forwardFromStores(op *isa.MicroOp, now int64) bool {
	c.Acct.Inc(c.hSB, energy.Search, 1)
	for i := 0; i < c.win.len(); i++ {
		if w := c.win.at(i); w.op.Class == isa.Store && w.op.Overlaps(op) {
			return true
		}
	}
	res := c.sb.SearchForLoad(op.Seq, op.Addr, op.Size, false)
	return res.Forward != nil
}

func (c *Core) srcsReady(op *isa.MicroOp, now int64) bool {
	for _, s := range [...]isa.Reg{op.Src1, op.Src2} {
		if s.Valid() && c.regReady[s] > now {
			return false
		}
	}
	return true
}

// dispatch moves decoded ops from the front end into the IQ.
func (c *Core) dispatch() {
	for n := 0; n < c.cfg.Width && c.iq.len() < c.cfg.IQSize; n++ {
		op := c.FE.Pop()
		if op == nil {
			return
		}
		c.iq.pushBack(entry{op: op})
		c.Acct.Inc(c.hIQ, energy.Write, 1)
		c.Emit(c.Clock, op.Seq, ptrace.KindDispatch)
	}
}

// Package ooo implements the paper's out-of-order baseline (§II-B,
// Table I): a 2-wide OoO core with register renaming (48 INT / 24 FP
// physical registers), a 16-entry CAM-based issue queue with oldest-first
// select, a 32-entry ROB, a 16-entry load queue plus an 8-entry unified
// store queue/buffer, and a store-set memory dependence predictor.
//
// The NoLQ configuration models "OoO+NoLQ" of Fig. 9: the load queue is
// removed and load speculation is validated by an on-commit value-check
// against the store queue (Ros & Kaxiras), exactly the mechanism CASINO
// builds on.
package ooo

import (
	"fmt"
	"math/bits"

	"casino/internal/bpred"
	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/lsu"
	"casino/internal/mem"
	"casino/internal/pipeline"
	"casino/internal/ptrace"
	"casino/internal/regfile"
	"casino/internal/stats"
	"casino/internal/trace"
)

// Config holds the OoO core parameters.
type Config struct {
	Width      int
	IQSize     int
	ROBSize    int
	LQSize     int
	SQSize     int
	IntPRF     int
	FPPRF      int
	FrontDepth int
	NoLQ       bool // replace the LQ with on-commit value-check validation
	// SSClearInterval overrides the store-set predictor's cyclic-clearing
	// period (predictions between SSIT flushes); 0 = the default.
	SSClearInterval uint64
}

// DefaultConfig returns the Table I OoO configuration.
func DefaultConfig() Config {
	return Config{
		Width: 2, IQSize: 16, ROBSize: 32, LQSize: 16, SQSize: 8,
		IntPRF: 48, FPPRF: 24, FrontDepth: 7,
	}
}

// Validate checks the limits the core is built on: a front end at least
// one op wide and one stage deep; at least one entry in the IQ, the ROB,
// the SQ and, unless NoLQ, the LQ; and at least one physical register of
// each class beyond the architectural ones, or renaming has nothing to
// allocate. An empty structure never accepts an op, so the run would stall
// until the cycle cap. No structure may exceed pipeline.MaxEntries.
func (c Config) Validate() error {
	if c.Width < 1 || c.FrontDepth < 1 {
		return fmt.Errorf("ooo: Width and FrontDepth must be positive, got %d and %d", c.Width, c.FrontDepth)
	}
	if c.IQSize < 1 || c.ROBSize < 1 || c.SQSize < 1 || (!c.NoLQ && c.LQSize < 1) {
		return fmt.Errorf("ooo: IQSize, ROBSize, SQSize and LQSize must be positive, got %d, %d, %d and %d",
			c.IQSize, c.ROBSize, c.SQSize, c.LQSize)
	}
	if c.IntPRF <= isa.NumIntRegs || c.FPPRF <= isa.NumFPRegs {
		return fmt.Errorf("ooo: need more than %d INT and %d FP physical registers, got %d and %d",
			isa.NumIntRegs, isa.NumFPRegs, c.IntPRF, c.FPPRF)
	}
	if max(c.IQSize, c.ROBSize, c.LQSize, c.SQSize, c.IntPRF, c.FPPRF) > pipeline.MaxEntries {
		return fmt.Errorf("ooo: IQSize, ROBSize, LQSize, SQSize, IntPRF and FPPRF must be at most %d, got %d, %d, %d, %d, %d and %d",
			pipeline.MaxEntries, c.IQSize, c.ROBSize, c.LQSize, c.SQSize, c.IntPRF, c.FPPRF)
	}
	return nil
}

// WideConfig scales the Table I machine to the given width as §VI-F does:
// ROB/IQ/LSQ/PRF double at 3-wide and quadruple at 4-wide.
func WideConfig(width int) Config {
	c := DefaultConfig()
	scale := 1
	switch {
	case width >= 4:
		scale = 4
	case width == 3:
		scale = 2
	}
	c.Width = width
	c.IQSize *= scale
	c.ROBSize *= scale
	c.LQSize *= scale
	c.SQSize *= scale
	c.IntPRF *= scale
	c.FPPRF *= scale
	return c
}

func newStoreSets(clear uint64) *lsu.StoreSets {
	if clear == 0 {
		return lsu.NewStoreSets()
	}
	return lsu.NewStoreSetsWithClear(clear)
}

type robEntry struct {
	op         *isa.MicroOp
	issued     bool
	done       int64
	issueCycle int64
	srcP1      regfile.PReg
	srcP2      regfile.PReg
	newP       regfile.PReg
	oldP       regfile.PReg
	waitStore  uint64 // store-set predicted dependence (lsu.NoSeq = none)
	specLoad   bool   // load issued past an unresolved older store
	sentinel   bool   // load set a sentinel (NoLQ mode)
}

// Core is the out-of-order baseline.
type Core struct {
	pipeline.Shell

	cfg Config
	rf  *regfile.File
	sq  *lsu.StoreQueue
	lq  *lsu.LoadQueue
	ss  *lsu.StoreSets

	rob  []robEntry // ring
	head int
	n    int

	// iqMask holds one bit per ring slot, set while that slot's entry waits
	// in the scheduler; iqN counts its set bits so dispatch need not. The
	// regfile's candidate bitmap (WakeWords) further marks slots whose
	// source producers have all issued.
	iqMask []uint64
	iqN    int

	hIQ, hROB, hRAT, hPRF, hLQ, hSQ, hFL, hMDP int

	flushedThisCycle bool

	// Model statistics.
	Violations     uint64
	Flushes        uint64
	LoadsForwarded uint64
	SpecLoads      uint64

	// Per-structure occupancy histograms, sampled once per cycle.
	OccROB *stats.Hist
	OccIQ  *stats.Hist // ROB entries waiting in the scheduler
	OccSQ  *stats.Hist
	OccLQ  *stats.Hist // nil when cfg.NoLQ
}

// New builds an OoO core over the trace.
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
		rf:  regfile.New(cfg.IntPRF, cfg.FPPRF, 3),
		sq:  lsu.NewStoreQueue(cfg.SQSize),
		ss:  newStoreSets(cfg.SSClearInterval),
		rob: make([]robEntry, cfg.ROBSize),

		OccROB: stats.NewHist(cfg.ROBSize + 1),
		OccIQ:  stats.NewHist(cfg.IQSize + 1),
		OccSQ:  stats.NewHist(cfg.SQSize + 1),
	}
	if !cfg.NoLQ {
		c.lq = lsu.NewLoadQueue(cfg.LQSize)
		c.OccLQ = stats.NewHist(cfg.LQSize + 1)
	}
	c.iqMask = make([]uint64, (cfg.ROBSize+63)/64)
	c.rf.EnableWakeup(cfg.ROBSize)
	acct.FrontendScale = 1.4 // 9-stage pipeline vs the 7-stage InO
	c.Init(c, cfg.Width, cfg.FrontDepth, 2*(cfg.ROBSize+cfg.SQSize)+16, tr, start, pred, hier, acct)
	c.sq.SetWakeQueue(c.WQ)
	c.ReplayHists(c.OccROB, c.OccIQ, c.OccSQ, c.OccLQ)

	c.hIQ = acct.Register(energy.Structure{Name: "IQ", Entries: cfg.IQSize, Bits: 96, Ports: 2 * cfg.Width, CAM: true, TagBits: 16})
	c.hROB = acct.Register(energy.Structure{Name: "ROB", Entries: cfg.ROBSize, Bits: 96, Ports: 2 * cfg.Width})
	c.hRAT = acct.Register(energy.Structure{Name: "RAT", Entries: isa.NumArchRegs, Bits: 8, Ports: 3 * cfg.Width})
	c.hPRF = acct.Register(energy.Structure{Name: "PRF", Entries: cfg.IntPRF + cfg.FPPRF, Bits: 64, Ports: 3 * cfg.Width})
	if !cfg.NoLQ {
		c.hLQ = acct.Register(energy.Structure{Name: "LQ", Entries: cfg.LQSize, Bits: 64, Ports: 2, CAM: true, TagBits: 40})
	} else {
		c.hLQ = -1
	}
	c.hSQ = acct.Register(energy.Structure{Name: "SQ", Entries: cfg.SQSize, Bits: 112, Ports: 2, CAM: true, TagBits: 40})
	c.hFL = acct.Register(energy.Structure{Name: "FreeList", Entries: cfg.IntPRF + cfg.FPPRF, Bits: 8, Ports: 2 * cfg.Width})
	c.hMDP = acct.Register(energy.Structure{Name: "MDP", Entries: 1024, Bits: 10, Ports: 2})
	return c
}

// Done reports pipeline drain.
func (c *Core) Done() bool {
	return c.FE.Done() && c.n == 0 && c.sq.Len() == 0
}

// Cycle advances one clock.
func (c *Core) Cycle() {
	now := c.Clock
	committed0, flushes0 := c.Commits, c.Flushes
	c.WQ.Drain(now)
	c.OccROB.Add(c.n)
	c.OccIQ.Add(c.iqN)
	c.OccSQ.Add(c.sq.Len())
	if c.OccLQ != nil {
		c.OccLQ.Add(c.lq.Len())
	}
	c.retireStores(now)
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	c.FE.Cycle(now)
	c.EndCycle(c.classifyCycle(now, committed0, flushes0))
}

// classifyCycle decides the cycle's CPI bucket: base if anything
// committed, replay if a flush fired, otherwise why the ROB head (the
// commit bottleneck) has not retired. It asks srcsReady and waitsOnStore,
// which ready() also calls, but not ready() itself: that clears a head
// load's store-set wait.
func (c *Core) classifyCycle(now int64, committed0, flushes0 uint64) (ptrace.Bucket, uint64) {
	if c.Commits > committed0 {
		return ptrace.BucketBase, 0
	}
	if c.Flushes > flushes0 {
		return ptrace.BucketReplay, 0
	}
	if c.n > 0 {
		e := c.at(0)
		if e.issued {
			if e.op.Class.IsMem() {
				return ptrace.BucketDCache, e.op.Seq
			}
			return ptrace.BucketExec, e.op.Seq
		}
		if !c.srcsReady(e, now) {
			return ptrace.BucketSrc, e.op.Seq
		}
		if c.waitsOnStore(e) {
			return ptrace.BucketDCache, e.op.Seq // store-set memory dependence
		}
		return ptrace.BucketFU, e.op.Seq
	}
	if !c.FE.Done() {
		return ptrace.BucketICache, 0
	}
	return ptrace.BucketDrain, 0
}

func (c *Core) at(i int) *robEntry {
	// Hot path: head+i < 2*len always holds, so a compare-and-subtract
	// replaces the integer division a % would cost.
	j := c.head + i
	if j >= len(c.rob) {
		j -= len(c.rob)
	}
	return &c.rob[j]
}

func (c *Core) retireStores(now int64) {
	if c.sq.HeadRetirable(now) {
		e := c.sq.Head()
		done := c.Hier.Store(e.PC, e.Addr, now)
		c.Acct.L1Access++
		c.sq.StartRetire(done)
	}
	c.sq.PopRetired(now)
}

// commit retires up to Width completed instructions in order.
func (c *Core) commit(now int64) {
	for k := 0; k < c.cfg.Width && c.n > 0; k++ {
		e := c.at(0)
		if !e.issued || e.done > now {
			return
		}
		op := e.op
		c.Acct.Inc(c.hROB, energy.Read, 1)
		switch op.Class {
		case isa.Load:
			if c.cfg.NoLQ {
				if e.specLoad {
					// On-commit value-check: replay the search.
					if c.sq.ValidateLoad(op.Seq, op.Addr, op.Size, e.issueCycle) {
						c.Acct.Inc(c.hSQ, energy.Search, 1)
						c.violationFlush(op.Seq, now)
						return
					}
					c.Acct.Inc(c.hSQ, energy.Search, 1)
				}
				if e.sentinel {
					c.sq.ClearSentinel(op.Seq)
				}
			} else {
				c.lq.Release(op.Seq)
				c.Acct.Inc(c.hLQ, energy.Read, 1)
			}
		case isa.Store:
			c.sq.Commit(op.Seq)
			c.Acct.Inc(c.hSQ, energy.Write, 1)
		}
		if e.newP != regfile.PRegNone {
			c.rf.Release(e.oldP)
			c.Acct.Inc(c.hFL, energy.Write, 1)
		}
		c.Emit(now, op.Seq, ptrace.KindCommit)
		c.head = (c.head + 1) % len(c.rob)
		c.n--
		c.Commits++
	}
}

// issue selects up to Width ready instructions oldest-first from the IQ.
// Only slots raised on the candidate bitmap (every source producer issued)
// are visited; an entry skipped that way would have failed ready() at the
// source check without side effects, so the filter changes no decision.
func (c *Core) issue(now int64) {
	issued := 0
	end := c.head + c.n
	hi := end
	if hi > len(c.rob) {
		hi = len(c.rob)
	}
	if c.issueRange(now, c.head, hi, &issued) {
		return
	}
	if end > len(c.rob) {
		c.issueRange(now, 0, end-len(c.rob), &issued)
	}
}

// issueRange walks the scheduler entries in ring slots [lo, hi) — a
// contiguous, non-wrapping, age-ordered run — via bits.TrailingZeros64 over
// the iqMask words, filtered by the candidate bitmap. Returns true when
// issue must stop for this cycle (width exhausted or a violation flush).
func (c *Core) issueRange(now int64, lo, hi int, issued *int) bool {
	wake := c.rf.WakeWords()
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		base := wi << 6
		w := c.iqMask[wi] & wake[wi]
		if lo > base {
			w &= ^uint64(0) << uint(lo-base)
		}
		if hi < base+64 {
			w &= (uint64(1) << uint(hi-base)) - 1
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= uint64(1) << uint(b)
			e := &c.rob[base+b]
			if !c.ready(e, now) {
				continue
			}
			if !c.FUs.Issue(e.op.Class, now) {
				continue
			}
			c.CountFU(e.op.Class)
			c.Acct.Inc(c.hIQ, energy.Read, 1)
			c.Acct.Inc(c.hPRF, energy.Read, 2)
			c.executeOp(e, now)
			// A completion next cycle needs no wakeup: this issue already
			// makes the current cycle non-idle, so no jump can start before
			// it lands.
			if e.done > now+1 {
				c.WQ.Wake(e.done)
			}
			c.iqN--
			c.iqMask[wi] &^= uint64(1) << uint(b)
			e.issued = true
			e.issueCycle = now
			c.Emit(now, e.op.Seq, ptrace.KindIssueSpec)
			c.Emit(e.done, e.op.Seq, ptrace.KindComplete)
			*issued++
			if e.op.HasDst() {
				// Completion broadcasts the destination tag across both
				// source-tag columns of the IQ CAM (two match arrays).
				c.Acct.Inc(c.hIQ, energy.Search, 2)
				c.Acct.Inc(c.hPRF, energy.Write, 1)
			}
			if c.flushedThisCycle {
				c.flushedThisCycle = false
				return true
			}
			if *issued >= c.cfg.Width {
				return true
			}
		}
	}
	return false
}

// srcsReady reports whether both source registers of e hold their values
// at cycle now. It has no side effects.
func (c *Core) srcsReady(e *robEntry, now int64) bool {
	return c.rf.IsReady(e.srcP1, now) && c.rf.IsReady(e.srcP2, now)
}

// waitsOnStore reports whether e is a load whose store-set predicted
// store has not resolved its address yet. It has no side effects.
func (c *Core) waitsOnStore(e *robEntry) bool {
	return e.op.Class == isa.Load && e.waitStore != lsu.NoSeq && !c.sq.ResolvedOrGone(e.waitStore)
}

// ready is the issue check: sources ready and no store-set wait. Once it
// passes, the wait is cleared so later checks skip the SQ lookup (only
// loads ever carry one).
func (c *Core) ready(e *robEntry, now int64) bool {
	if !c.srcsReady(e, now) || c.waitsOnStore(e) {
		return false
	}
	e.waitStore = lsu.NoSeq
	return true
}

func (c *Core) executeOp(e *robEntry, now int64) {
	op := e.op
	lat := int64(op.Class.ExecLatency())
	switch op.Class {
	case isa.Load:
		agu := now + lat
		res := c.sq.SearchForLoad(op.Seq, op.Addr, op.Size, false)
		c.Acct.Inc(c.hSQ, energy.Search, 1)
		if res.OldestUnresolved != nil {
			e.specLoad = true
			c.SpecLoads++
			if c.cfg.NoLQ {
				c.sq.SetSentinel(res.OldestUnresolved, op.Seq)
				e.sentinel = true
			}
		}
		if res.Forward != nil {
			c.LoadsForwarded++
			e.done = agu + int64(c.Hier.Config().L1Latency)
		} else {
			done, _ := c.Hier.Load(op.PC, op.Addr, agu)
			c.Acct.L1Access++
			e.done = done
		}
		if !c.cfg.NoLQ {
			c.lq.MarkIssued(op.Seq, op.Addr, op.Size)
			c.Acct.Inc(c.hLQ, energy.Write, 1)
		}
	case isa.Store:
		e.done = now + lat
		c.sq.Resolve(op.Seq, op.Addr, op.Size, now+lat, now+lat)
		c.ss.StoreIssued(op.PC, op.Seq)
		c.Acct.Inc(c.hSQ, energy.Write, 1)
		c.Acct.Inc(c.hMDP, energy.Write, 1)
		if !c.cfg.NoLQ {
			// Search the LQ for younger speculatively issued loads.
			if loadSeq, loadPC, hit := c.lq.SearchViolation(op.Seq, op.Addr, op.Size); hit {
				c.Acct.Inc(c.hLQ, energy.Search, 1)
				c.ss.OnViolation(loadPC, op.PC)
				c.Acct.Inc(c.hMDP, energy.Write, 2)
				c.violationFlush(loadSeq, now)
				c.flushedThisCycle = true
				return
			}
			c.Acct.Inc(c.hLQ, energy.Search, 1)
		}
	case isa.Branch:
		e.done = now + lat
		c.FE.BranchResolved(op.Seq, e.done)
	default:
		e.done = now + lat
	}
	if e.newP != regfile.PRegNone {
		c.rf.SetReadyAt(e.newP, e.done)
	}
}

// violationFlush squashes the load with sequence victim and everything
// younger, restores the RAT, and refetches.
func (c *Core) violationFlush(victim uint64, now int64) {
	c.Violations++
	c.Flushes++
	c.Emit(now, victim, ptrace.KindFlush)
	// Walk the ROB youngest-first, undoing renames down to the victim.
	for c.n > 0 {
		e := c.at(c.n - 1)
		if e.op.Seq < victim {
			break
		}
		c.Emit(now, e.op.Seq, ptrace.KindSquash)
		if e.newP != regfile.PRegNone {
			c.rf.SetMapping(e.op.Dst, e.oldP)
			c.rf.Release(e.newP)
			c.Acct.Inc(c.hRAT, energy.Write, 1)
		}
		j := c.head + c.n - 1
		if j >= len(c.rob) {
			j -= len(c.rob)
		}
		if bit := uint64(1) << uint(j&63); c.iqMask[j>>6]&bit != 0 {
			c.iqMask[j>>6] &^= bit
			c.iqN--
		}
		// Invalidate the squashed slot: registered waiters must not fire
		// for whatever occupies the slot next.
		c.rf.ResetSlot(j)
		c.n--
	}
	if c.lq != nil {
		c.lq.SquashYoungerThan(victim)
	}
	c.sq.SquashYoungerThan(victim)
	c.sq.ClearAllSentinels()
	c.FE.Squash(victim, now)
}

// canDispatch reports whether op finds a ROB entry, an IQ slot, an SQ or
// LQ entry if it is a store or load, and a free register if it writes one.
// dispatch and CanDispatch share it; it has no side effects.
func (c *Core) canDispatch(op *isa.MicroOp) bool {
	return c.n < len(c.rob) && c.iqN < c.cfg.IQSize &&
		!(op.Class == isa.Store && c.sq.Full()) &&
		!(c.lq != nil && op.Class == isa.Load && c.lq.Full()) &&
		!(op.HasDst() && !c.rf.CanAllocate(op.Dst))
}

// dispatch renames and inserts up to Width ops into the ROB/IQ.
func (c *Core) dispatch(now int64) {
	for k := 0; k < c.cfg.Width; k++ {
		op := c.FE.Peek(0)
		if op == nil || !c.canDispatch(op) {
			return
		}
		c.FE.Pop()
		j := c.head + c.n
		if j >= len(c.rob) {
			j -= len(c.rob)
		}
		e := &c.rob[j]
		*e = robEntry{
			op:        op,
			waitStore: lsu.NoSeq,
			srcP1:     c.rf.Lookup(op.Src1),
			srcP2:     c.rf.Lookup(op.Src2),
			newP:      regfile.PRegNone,
			oldP:      regfile.PRegNone,
		}
		c.Acct.Inc(c.hRAT, energy.Read, 2)
		c.iqMask[j>>6] |= uint64(1) << uint(j&63)
		c.rf.ResetSlot(j)
		c.rf.WaitOn(e.srcP1, j)
		c.rf.WaitOn(e.srcP2, j)
		c.rf.ArmSlot(j)
		if op.HasDst() {
			newP, oldP, ok := c.rf.Allocate(op.Dst)
			if !ok {
				panic("ooo: allocate failed after CanAllocate")
			}
			e.newP, e.oldP = newP, oldP
			c.Acct.Inc(c.hRAT, energy.Write, 1)
			c.Acct.Inc(c.hFL, energy.Read, 1)
		}
		switch op.Class {
		case isa.Store:
			c.sq.Dispatch(op.Seq, op.PC)
			c.ss.StoreDispatched(op.PC, op.Seq)
			c.Acct.Inc(c.hSQ, energy.Write, 1)
			c.Acct.Inc(c.hMDP, energy.Read, 1)
		case isa.Load:
			if c.lq != nil {
				c.lq.Dispatch(op.Seq, op.PC)
				c.Acct.Inc(c.hLQ, energy.Write, 1)
			}
			if seq, wait := c.ss.LoadDependence(op.PC); wait {
				e.waitStore = seq
			}
			c.Acct.Inc(c.hMDP, energy.Read, 1)
		}
		c.Acct.Inc(c.hROB, energy.Write, 1)
		c.Acct.Inc(c.hIQ, energy.Write, 1)
		c.Emit(now, op.Seq, ptrace.KindDispatch)
		c.n++
		c.iqN++
	}
}

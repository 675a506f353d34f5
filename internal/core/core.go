package core

import (
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

// opEntry tracks one in-flight instruction from S-IQ dispatch to commit.
type opEntry struct {
	op         *isa.MicroOp
	queue      int8 // index of the queue holding it; -1 once issued
	issued     bool
	fromSIQ    bool // issued speculatively from an S-IQ stage
	done       int64
	issueCycle int64

	newP  regfile.PReg // freshly allocated physical register (or PRegNone)
	oldP  regfile.PReg // previous mapping (released at commit)
	dstP  regfile.PReg // register the destination maps to (shared if passed)
	srcP1 regfile.PReg
	srcP2 regfile.PReg

	// Producer ops captured at S-IQ exit (conditional renaming), paired
	// with the producer's sequence number at capture time. Entries recycle
	// through a freelist at commit, so a bare pointer can outlive the
	// instruction it was captured for; prodSeq1/2 detect that. Use
	// liveProducer, never the raw pointers.
	prod1    *opEntry
	prod2    *opEntry
	prodSeq1 uint64
	prodSeq2 uint64

	hasDB    bool // holds a data buffer entry (IQ-issued, conditional renaming)
	specLoad bool // load issued past an unresolved older store
	sentinel bool // load placed a sentinel on a store
	lineSent bool // load placed a TSO sentinel on its cache line

	// preAlloc marks a window entry whose ROB/SQ slots were allocated and
	// whose sources were group-renamed when a younger window entry issued
	// past it (Fig. 4's group rename keeps the ROB and SQ in program
	// order even though the younger instruction left first).
	preAlloc bool
}

// liveProducer resolves a captured producer reference. Once the producer
// commits its entry is recycled: while it sits on the freelist it still
// carries the old op (issued, done in the past — readiness checks read it
// as complete, the correct committed outcome), and once reused it carries
// a different Seq and liveProducer returns nil, which readiness checks
// treat as "value architectural" — the same committed outcome. A recycled
// entry can never be reused for the captured Seq again: commit order is
// monotonic, so refetched sequence numbers are always younger than any
// committed producer, and a consumer holding a reference to a
// flush-squashed producer is itself younger and squashed with it.
func liveProducer(p *opEntry, seq uint64) *opEntry {
	if p == nil || p.op == nil || p.op.Seq != seq {
		return nil
	}
	return p
}

// Core is the CASINO core.
type Core struct {
	pipeline.Shell

	cfg  Config
	rf   *regfile.File
	sq   *lsu.StoreQueue
	lq   *lsu.LoadQueue // conventional LQ (DisambigFullLQ only)
	osca *lsu.OSCA
	log  regfile.RecoveryLog

	lineSent *lineSentinels  // TSO load-load ordering sentinels (§III-C4)
	remote   *remoteInjector // synthetic coherence traffic (nil = off)

	// queues[0] is the first S-IQ, queues[1..MidSIQs] the intermediate
	// S-IQs, queues[len-1] the final in-order IQ. Older instructions live
	// in higher-indexed queues. Each queue is a fixed-capacity ring sized
	// at its configuration cap.
	queues []opRing

	rob opRing

	// free recycles opEntry objects: entries return here at commit and on
	// flush, so steady state allocates nothing per instruction. Entries on
	// the freelist keep their last op until reused (see liveProducer).
	free         []*opEntry
	entryAllocs  uint64 // opEntry heap allocations (freelist misses)
	entryRecycle uint64 // entries returned to the freelist

	lastWriter [isa.NumArchRegs]*opEntry
	dbUsed     int
	flushed    bool // a violation flush occurred this cycle; abort scheduling

	hSIQ, hIQ, hRAT, hScbd, hPRF, hROB, hSQ, hOSCA, hDB, hFL, hLog, hLQ int

	// Statistics.
	IssuedSIQMem    uint64
	IssuedSIQNonMem uint64
	IssuedIQMem     uint64
	IssuedIQNonMem  uint64
	Violations      uint64
	Flushes         uint64
	LoadsForwarded  uint64
	PassedToIQ      uint64
	ProducerDist    *stats.Hist // IQ distance producer→passed consumer (§II-C)

	// Per-structure occupancy histograms, sampled once per cycle (entries
	// resident at cycle start). Buckets cover 0..capacity so steady-state
	// sampling never allocates or overflows.
	OccSIQ *stats.Hist // first S-IQ
	OccIQ  *stats.Hist // final in-order IQ
	OccROB *stats.Hist
	OccSQ  *stats.Hist

	// Head-of-S-IQ stall diagnostics (why the head could not exit).
	StallIQFull    uint64 // pass blocked: next queue full
	StallPReg      uint64 // issue blocked: no free physical register
	StallProdCount uint64 // pass blocked: ProducerCount saturated
	StallROBSQ     uint64 // exit blocked: ROB or SQ full
	StallFU        uint64 // issue blocked: no functional unit / issue slot
	StallDataBuf   uint64 // IQ issue blocked: data buffer full
}

// New builds a CASINO core over the trace. It panics on an invalid Config
// (construction-time misuse, not a runtime condition).
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
		cfg:          cfg,
		rf:           regfile.New(cfg.IntPRF, cfg.FPPRF, uint8(cfg.MaxProducers)),
		sq:           lsu.NewStoreQueue(cfg.SQSize),
		rob:          newOpRing(cfg.ROBSize),
		ProducerDist: stats.NewHist(16),
		OccSIQ:       stats.NewHist(cfg.SIQSize + 1),
		OccIQ:        stats.NewHist(cfg.IQSize + 1),
		OccROB:       stats.NewHist(cfg.ROBSize + 1),
		OccSQ:        stats.NewHist(cfg.SQSize + 1),
	}
	if cfg.OSCASize > 0 && cfg.Disambig == DisambigOSCA {
		max := uint8(cfg.SQSize)
		c.osca = lsu.NewOSCA(cfg.OSCASize, max)
	}
	if cfg.Disambig == DisambigFullLQ {
		c.lq = lsu.NewLoadQueue(cfg.LQSize)
	}
	c.lineSent = newLineSentinels()
	c.remote = newRemoteInjector(cfg.Remote)
	nq := 2 + cfg.MidSIQs
	c.queues = make([]opRing, nq)
	c.queues[0] = newOpRing(cfg.SIQSize)
	for i := 1; i <= cfg.MidSIQs; i++ {
		c.queues[i] = newOpRing(cfg.MidSIQSize)
	}
	c.queues[nq-1] = newOpRing(cfg.IQSize)
	acct.FrontendScale = 1.4 // 9-stage pipeline vs the 7-stage InO
	// Shared wakeup queue: sized for the in-flight event population (one
	// completion per ROB/SQ entry plus stalls) so it never grows.
	c.Init(c, cfg.Width, cfg.FrontDepth, 2*(cfg.ROBSize+cfg.SQSize)+16, tr, start, pred, hier, acct)
	c.sq.SetWakeQueue(c.WQ)
	if c.remote != nil {
		c.WQ.Wake(c.remote.next)
	}
	c.ReplayCounters(&c.StallIQFull, &c.StallPReg, &c.StallProdCount, &c.StallROBSQ, &c.StallFU, &c.StallDataBuf)
	c.ReplayHists(c.OccSIQ, c.OccIQ, c.OccROB, c.OccSQ)

	siqEntries := cfg.SIQSize + cfg.MidSIQs*cfg.MidSIQSize
	c.hSIQ = acct.Register(energy.Structure{Name: "S-IQ", Entries: siqEntries, Bits: 64, Ports: 2 * cfg.Width})
	c.hIQ = acct.Register(energy.Structure{Name: "IQ", Entries: cfg.IQSize, Bits: 72, Ports: 2 * cfg.Width})
	c.hRAT = acct.Register(energy.Structure{Name: "RAT", Entries: isa.NumArchRegs, Bits: 8, Ports: 3 * cfg.Width})
	c.hScbd = acct.Register(energy.Structure{Name: "PRFScbd", Entries: cfg.IntPRF + cfg.FPPRF, Bits: 12, Ports: 3 * cfg.Width})
	c.hPRF = acct.Register(energy.Structure{Name: "PRF", Entries: cfg.IntPRF + cfg.FPPRF, Bits: 64, Ports: 3 * cfg.Width})
	c.hROB = acct.Register(energy.Structure{Name: "ROB", Entries: cfg.ROBSize, Bits: 96, Ports: 2 * cfg.Width})
	c.hSQ = acct.Register(energy.Structure{Name: "SQ", Entries: cfg.SQSize, Bits: 112, Ports: 2, CAM: true, TagBits: 40})
	if c.osca != nil {
		c.hOSCA = acct.Register(energy.Structure{Name: "OSCA", Entries: cfg.OSCASize, Bits: 4, Ports: 4})
	} else {
		c.hOSCA = -1
	}
	c.hDB = acct.Register(energy.Structure{Name: "DataBuf", Entries: cfg.DataBufSize, Bits: 64, Ports: 2 * cfg.Width})
	c.hFL = acct.Register(energy.Structure{Name: "FreeList", Entries: cfg.IntPRF + cfg.FPPRF, Bits: 8, Ports: 2 * cfg.Width})
	c.hLog = acct.Register(energy.Structure{Name: "RecoveryLog", Entries: 2 * cfg.Width * 4, Bits: 24, Ports: 2 * cfg.Width})
	if c.lq != nil {
		c.hLQ = acct.Register(energy.Structure{Name: "LQ", Entries: cfg.LQSize, Bits: 64, Ports: 2, CAM: true, TagBits: 40})
	} else {
		c.hLQ = -1
	}
	return c
}

// RegAllocs returns physical-register allocation count (Fig. 7a).
func (c *Core) RegAllocs() uint64 { return c.rf.Allocs }

// OSCA returns the outstanding store counter array (nil if disabled).
func (c *Core) OSCA() *lsu.OSCA { return c.osca }

// StoreQueue exposes the unified SQ/SB (activity counters for Fig. 8).
func (c *Core) StoreQueue() *lsu.StoreQueue { return c.sq }

// Done reports whether the trace is exhausted and the pipeline drained.
func (c *Core) Done() bool {
	if !c.FE.Done() || c.rob.len() != 0 || c.sq.Len() != 0 {
		return false
	}
	for i := range c.queues {
		if c.queues[i].len() != 0 {
			return false
		}
	}
	return true
}

// LineSentinels exposes TSO line-sentinel statistics (set/cleared/withheld).
func (c *Core) LineSentinels() (set, cleared, withheld uint64) {
	return c.lineSent.Set, c.lineSent.Cleared, c.lineSent.Withheld
}

// RemoteStats exposes the synthetic coherence injector's counters
// (invalidations fired, acks withheld, total remote-store delay cycles).
func (c *Core) RemoteStats() (invals, withheld, delayCycles uint64) {
	if c.remote == nil {
		return 0, 0, 0
	}
	return c.remote.Invalidations, c.remote.WithheldAcks, c.remote.DelayCycles
}

// Cycle advances the core by one clock.
func (c *Core) Cycle() {
	now := c.Clock
	committed0, flushes0 := c.Commits, c.Flushes
	c.WQ.Drain(now)
	c.OccSIQ.Add(c.queues[0].len())
	c.OccIQ.Add(c.queues[len(c.queues)-1].len())
	c.OccROB.Add(c.rob.len())
	c.OccSQ.Add(c.sq.Len())
	if r := c.remote; r != nil {
		next0 := r.next
		r.tick(now, c.lineSent, c.rob.len())
		if r.next != next0 {
			c.WQ.Wake(r.next)
		}
	}
	c.retireStores(now)
	c.commit(now)
	c.schedule(now)
	c.dispatch()
	c.FE.Cycle(now)
	c.EndCycle(c.classifyCycle(now, committed0, flushes0))
}

func (c *Core) robAt(i int) *opEntry { return c.rob.at(i) }

// allocEntry takes an entry from the freelist (or the heap on a miss) and
// resets it for op. References captured against the entry's previous life
// are invalidated by the Seq change (see liveProducer).
func (c *Core) allocEntry(op *isa.MicroOp) *opEntry {
	var e *opEntry
	if k := len(c.free); k > 0 {
		e = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		e = new(opEntry)
		c.entryAllocs++
	}
	// Clear-then-set compiles to a duff-zero plus a few stores; assigning a
	// composite literal copied the whole 100-byte struct through a temp.
	*e = opEntry{}
	e.op = op
	e.newP, e.oldP, e.dstP = regfile.PRegNone, regfile.PRegNone, regfile.PRegNone
	e.srcP1, e.srcP2 = regfile.PRegNone, regfile.PRegNone
	return e
}

// recycleEntry returns an entry to the freelist. The caller guarantees the
// entry has left every queue and the ROB; lastWriter references must have
// been cleared. The op pointer is intentionally kept: stale producer
// references read the old (committed/squashed) state until reuse.
func (c *Core) recycleEntry(e *opEntry) {
	c.entryRecycle++
	c.free = append(c.free, e)
}

func (c *Core) retireStores(now int64) {
	if c.sq.HeadRetirable(now) {
		e := c.sq.Head()
		done := c.Hier.Store(e.PC, e.Addr, now)
		c.Acct.L1Access++
		c.sq.StartRetire(done)
	}
	if e, ok := c.sq.PopRetired(now); ok && c.osca != nil {
		c.osca.Dec(e.Addr, e.Size)
		c.Acct.Inc(c.hOSCA, energy.Write, 1)
	}
}

// commit retires up to Width completed instructions from the ROB head.
func (c *Core) commit(now int64) {
	for k := 0; k < c.cfg.Width && c.rob.len() > 0; k++ {
		e := c.robAt(0)
		if !e.issued || e.done > now {
			return
		}
		op := e.op
		c.Acct.Inc(c.hROB, energy.Read, 1)
		if op.Class == isa.Load {
			if c.lq != nil {
				c.lq.Release(op.Seq)
				c.Acct.Inc(c.hLQ, energy.Read, 1)
			} else if e.specLoad {
				// On-commit value-check (§III-C4): replay the SB search.
				c.Acct.Inc(c.hSQ, energy.Search, 1)
				if c.sq.ValidateLoad(op.Seq, op.Addr, op.Size, e.issueCycle) {
					c.flushFrom(op.Seq, now)
					return
				}
			}
		}
		if e.sentinel {
			c.sq.ClearSentinel(op.Seq)
		}
		if e.lineSent {
			c.lineSent.clear(op.Addr, op.Seq)
		}
		if op.Class == isa.Store {
			c.sq.Commit(op.Seq)
			c.Acct.Inc(c.hSQ, energy.Write, 1)
		}
		if e.newP != regfile.PRegNone {
			c.rf.Release(e.oldP)
			c.Acct.Inc(c.hFL, energy.Write, 1)
		}
		if e.hasDB {
			// Drain the data buffer value into the PRF.
			c.dbUsed--
			c.Acct.Inc(c.hDB, energy.Read, 1)
			c.Acct.Inc(c.hPRF, energy.Write, 1)
		}
		c.log.Commit(op.Seq)
		c.Emit(now, op.Seq, ptrace.KindCommit)
		// A committed last-writer's value is architectural; clearing the
		// reference here (rather than leaving a tombstone) is what lets
		// the entry recycle safely.
		if op.HasDst() && c.lastWriter[op.Dst] == e {
			c.lastWriter[op.Dst] = nil
		}
		c.rob.popFront()
		c.Commits++
		c.recycleEntry(e)
	}
}

// flushFrom squashes the instruction with sequence victim and everything
// younger, repairs the rename state from the recovery log, recovers
// ProducerCounts and the OSCA, and refetches (§III-C5). The on-commit
// value check always flushes from the ROB head (full flush); the FullLQ
// baseline flushes mid-pipeline when a resolving store hits a younger
// issued load.
func (c *Core) flushFrom(victim uint64, now int64) {
	c.Violations++
	c.Flushes++
	c.Emit(now, victim, ptrace.KindFlush)
	// Undo speculative renames, youngest first.
	c.Acct.Inc(c.hLog, energy.Read, uint64(c.log.Len()))
	c.log.Unwind(c.rf, victim)
	// ProducerCount recovery: dequeue squashed unissued queue residents.
	// Squashed entries still waiting in the first S-IQ without a pre-
	// allocated ROB slot exist nowhere else and recycle here; everything
	// that reached the ROB (passed or pre-allocated) recycles in the ROB
	// pop below.
	for qi := range c.queues {
		inROB := qi > 0
		c.queues[qi].filter(
			func(e *opEntry) bool { return e.op.Seq < victim },
			func(e *opEntry) {
				if !e.issued && e.newP == regfile.PRegNone && e.dstP != regfile.PRegNone {
					c.rf.RemoveProducer(e.dstP)
					c.Acct.Inc(c.hScbd, energy.Write, 1)
				}
				if !inROB && !e.preAlloc {
					c.Emit(now, e.op.Seq, ptrace.KindSquash)
					c.recycleEntry(e)
				}
			})
	}
	// Pop squashed ROB entries from the tail.
	for c.rob.len() > 0 {
		e := c.robAt(c.rob.len() - 1)
		if e.op.Seq < victim {
			break
		}
		if e.hasDB {
			c.dbUsed--
		}
		c.Emit(now, e.op.Seq, ptrace.KindSquash)
		c.rob.popBack()
		c.recycleEntry(e)
	}
	// OSCA recovery: squashed resolved stores decrement their counters.
	for _, se := range c.sq.SquashYoungerThan(victim) {
		if se.Resolved && c.osca != nil {
			c.osca.Dec(se.Addr, se.Size)
			c.Acct.Inc(c.hOSCA, energy.Write, 1)
		}
	}
	c.sq.ClearAllSentinels()
	c.lineSent.clearAll()
	if c.lq != nil {
		c.lq.SquashYoungerThan(victim)
	}
	// Squashed last-writers revert to the architectural mapping restored
	// by the recovery log.
	for i := range c.lastWriter {
		if c.lastWriter[i] != nil && c.lastWriter[i].op.Seq >= victim {
			c.lastWriter[i] = nil
		}
	}
	c.FE.Squash(victim, now)
}

// dispatch moves decoded ops from the front end into the first S-IQ.
func (c *Core) dispatch() {
	q := &c.queues[0]
	for k := 0; k < c.cfg.Width && q.len() < q.cap(); k++ {
		op := c.FE.Pop()
		if op == nil {
			return
		}
		q.pushBack(c.allocEntry(op))
		c.Acct.Inc(c.hSIQ, energy.Write, 1)
		c.Emit(c.Clock, op.Seq, ptrace.KindDispatch)
	}
}

package core

import (
	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/ptrace"
	"casino/internal/regfile"
)

// schedule performs one cycle of issue across the cascaded queues. Up to
// Width instructions issue in total. By default the final in-order IQ has
// priority (oldest-first, §III-C3); intermediate S-IQs follow, oldest stage
// first; the first S-IQ processes its SpecInO window last.
func (c *Core) schedule(now int64) {
	slots := c.cfg.Width
	last := len(c.queues) - 1
	if c.cfg.SIQPriority {
		for qi := 0; qi < last && !c.flushed; qi++ {
			c.processSIQ(qi, now, &slots)
		}
		if !c.flushed {
			c.processFinalIQ(now, &slots)
		}
		c.flushed = false
		return
	}
	c.processFinalIQ(now, &slots)
	for qi := last - 1; qi >= 0 && !c.flushed; qi-- {
		c.processSIQ(qi, now, &slots)
	}
	c.flushed = false
}

// processFinalIQ issues strictly in order from the head of the last queue.
func (c *Core) processFinalIQ(now int64, slots *int) {
	q := &c.queues[len(c.queues)-1]
	for *slots > 0 && q.len() > 0 {
		e := q.at(0)
		ready, scbReads := c.iqReady(e, now)
		c.Acct.Inc(c.hScbd, energy.Read, scbReads)
		if !ready || c.missingResource(e) != resNone || !c.FUs.Issue(e.op.Class, now) {
			return
		}
		q.popFront()
		c.Acct.Inc(c.hIQ, energy.Read, 1)
		c.issueOp(e, now, false)
		*slots--
		if c.flushed {
			return
		}
	}
}

// processSIQ runs the SpecInO[WS,SO] window at the head of queue qi. Ready
// instructions anywhere in the window issue immediately (consuming issue
// slots); a non-ready *head* instruction passes to the next queue (up to
// SO per cycle). A ready instruction may issue past a stuck older window
// entry: the stuck entry's ROB/SQ slots are pre-allocated and its sources
// group-renamed first, so the ROB and SQ remain program-ordered (Fig. 4).
func (c *Core) processSIQ(qi int, now int64, slots *int) {
	passes := 0
	pos := 0
	q := &c.queues[qi]
	next := &c.queues[qi+1]
	for examined := 0; examined < c.cfg.WS && pos < q.len(); examined++ {
		e := q.at(pos)
		ready, ratReads, scbReads := c.siqReady(qi, e, now)
		c.Acct.Inc(c.hRAT, energy.Read, ratReads)
		c.Acct.Inc(c.hScbd, energy.Read, scbReads)
		switch {
		case ready && *slots > 0 && c.exitResourcesOK(qi, e, pos) &&
			c.missingResource(e) == resNone && c.FUs.CanIssue(e.op.Class, now):
			if qi == 0 {
				c.preAllocOlder(q, pos)
				c.exitRename(e, true)
			}
			q.removeAt(pos)
			c.Acct.Inc(c.hSIQ, energy.Read, 1)
			c.FUs.Issue(e.op.Class, now)
			c.issueOp(e, now, true)
			*slots--
			if c.flushed {
				return
			}
			// Do not advance pos: the next entry slid into this slot.
		case !ready && pos == 0 && passes < c.cfg.SO &&
			next.len() < next.cap() && c.exitResourcesOK(qi, e, pos) && c.passResourcesOK(qi, e):
			if qi == 0 {
				c.exitRename(e, false)
			}
			q.removeAt(0)
			c.Acct.Inc(c.hSIQ, energy.Read, 1)
			e.queue = int8(qi + 1)
			next.pushBack(e)
			if qi+1 == len(c.queues)-1 {
				c.Acct.Inc(c.hIQ, energy.Write, 1)
				c.PassedToIQ++
				c.recordProducerDistance(e)
			} else {
				c.Acct.Inc(c.hSIQ, energy.Write, 1)
			}
			c.Emit(now, e.op.Seq, ptrace.KindPass)
			passes++
		default:
			if pos == 0 && qi == 0 {
				c.diagnoseHeadStall(e, ready, now)
			}
			// Entry stays in the window; examine the next one.
			pos++
		}
	}
}

// diagnoseHeadStall classifies why the S-IQ head could not exit (stats
// only; no architectural effect).
func (c *Core) diagnoseHeadStall(e *opEntry, ready bool, now int64) {
	if !c.exitResourcesOK(0, e, 0) {
		c.StallROBSQ++
		return
	}
	if ready {
		// A pre-allocated head still needs a register to issue, and OSCA
		// saturation counts with the register stalls.
		if c.missingResource(e) != resNone {
			c.StallPReg++
		} else {
			c.StallFU++
		}
		return
	}
	if c.queues[1].len() >= c.queues[1].cap() {
		c.StallIQFull++
		return
	}
	if !c.passResourcesOK(0, e) {
		c.StallProdCount++
	}
}

// preAllocOlder reserves program-ordered ROB (and SQ) slots for the stuck
// window entries older than position pos before a younger one issues past
// them, and captures their source mappings as of this point (group rename).
func (c *Core) preAllocOlder(q *opRing, pos int) {
	for i := 0; i < pos; i++ {
		e := q.at(i)
		if e.preAlloc {
			continue
		}
		c.captureSources(e)
		c.dispatchMemEntry(e)
		c.rob.pushBack(e)
		c.Acct.Inc(c.hROB, energy.Write, 1)
		e.preAlloc = true
	}
}

// siqReady is the conservative scoreboard readiness check performed on an
// S-IQ window entry (live RAT lookup; a register with pending shared
// producers is not ready). Entries whose sources were group-renamed when a
// younger instruction bypassed them, and entries in later S-IQs, use their
// captured mappings through iqReady. Memory operations are never "ready"
// under AGI ordering. The check has no side effects: it returns the RAT
// and scoreboard reads it made, which the scheduler bills and the CPI
// classifier does not.
func (c *Core) siqReady(qi int, e *opEntry, now int64) (ready bool, ratReads, scbReads uint64) {
	if c.cfg.Disambig == DisambigAGIOrder && e.op.Class.IsMem() {
		return false, 0, 0
	}
	if qi != 0 || e.preAlloc {
		ready, scbReads = c.iqReady(e, now)
		return ready, 0, scbReads
	}
	// Each examined source costs one RAT and one scoreboard read.
	var n uint64
	for _, s := range [...]isa.Reg{e.op.Src1, e.op.Src2} {
		if !s.Valid() {
			continue
		}
		n++
		if c.cfg.Renaming == RenameConditional {
			// The data buffer forwards each producer's value to its
			// consumers (§III-C3), so readiness is the completion of
			// the *specific* producing instruction. A younger last
			// writer (window bypass) hides the true producer: fall
			// back to the conservative scoreboard condition.
			lw := c.lastWriter[s]
			switch {
			case lw == nil:
				// Producer committed; value architectural.
			case lw.op.Seq < e.op.Seq:
				if !lw.issued || lw.done > now {
					return false, n, n
				}
			default:
				p := c.rf.Lookup(s)
				if c.rf.Producers(p) > 0 || !c.rf.IsReady(p, now) {
					return false, n, n
				}
			}
			continue
		}
		if !c.rf.IsReady(c.rf.Lookup(s), now) {
			return false, n, n
		}
	}
	return true, n, n
}

// iqReady checks an entry through its captured sources: the final IQ head,
// and S-IQ entries already renamed. Under conditional renaming the data
// buffer forwards the specific producer's value, so readiness is exact
// producer completion; under conventional renaming each op owns a register
// and each examined source costs one scoreboard read. It returns those
// reads for the caller to bill and has no side effects.
func (c *Core) iqReady(e *opEntry, now int64) (ready bool, scbReads uint64) {
	if c.cfg.Renaming == RenameConditional {
		if p := liveProducer(e.prod1, e.prodSeq1); p != nil && (!p.issued || p.done > now) {
			return false, 0
		}
		if p := liveProducer(e.prod2, e.prodSeq2); p != nil && (!p.issued || p.done > now) {
			return false, 0
		}
		return true, 0
	}
	for _, p := range [...]regfile.PReg{e.srcP1, e.srcP2} {
		if p == regfile.PRegNone {
			continue
		}
		scbReads++
		if !c.rf.IsReady(p, now) {
			return false, scbReads
		}
	}
	return true, scbReads
}

// exitResourcesOK checks the resources an S-IQ0 exit at window position
// pos needs: ROB entries (and SQ entries for stores) for itself plus any
// stuck older window entries that must be pre-allocated first.
func (c *Core) exitResourcesOK(qi int, e *opEntry, pos int) bool {
	if qi != 0 {
		return true
	}
	robNeed, sqNeed, lqNeed := 0, 0, 0
	if !e.preAlloc {
		robNeed++
		switch e.op.Class {
		case isa.Store:
			sqNeed++
		case isa.Load:
			lqNeed++
		}
		for i := 0; i < pos; i++ {
			o := c.queues[0].at(i)
			if !o.preAlloc {
				robNeed++
				switch o.op.Class {
				case isa.Store:
					sqNeed++
				case isa.Load:
					lqNeed++
				}
			}
		}
	}
	if c.rob.len()+robNeed > c.rob.cap() {
		return false
	}
	if sqNeed > 0 && c.sq.Len()+sqNeed > c.sq.Cap() {
		return false
	}
	if c.lq != nil && lqNeed > 0 && c.lq.Len()+lqNeed > c.lq.Cap() {
		return false
	}
	return true
}

// passResourcesOK checks the rename resources of the pass path.
func (c *Core) passResourcesOK(qi int, e *opEntry) bool {
	if qi != 0 || !e.op.HasDst() {
		return true
	}
	if c.cfg.Renaming == RenameConventional {
		return c.rf.CanAllocate(e.op.Dst)
	}
	// Conditional renaming: the passed instruction shares the current
	// mapping; the 2-bit ProducerCount must not saturate.
	return c.rf.CanAddProducer(c.rf.Lookup(e.op.Dst))
}

// resource names what an issue lacks beyond a functional unit.
type resource uint8

const (
	resNone    resource = iota
	resPReg             // a free physical register
	resDataBuf          // a data-buffer entry
	resOSCA             // OSCA headroom for a store
)

// missingResource is the issue-resource check the scheduler, the CPI
// classifier and diagnoseHeadStall share: the first resource an issue of
// e from the queue holding it needs and cannot get. An issue from the
// first S-IQ allocates a fresh register (intermediate-queue issues were
// renamed at the first S-IQ), an issue from the final IQ under conditional
// renaming takes a data-buffer entry, and a store needs OSCA headroom.
func (c *Core) missingResource(e *opEntry) resource {
	if e.op.HasDst() {
		if e.queue == 0 && !c.rf.CanAllocate(e.op.Dst) {
			return resPReg
		}
		if int(e.queue) == len(c.queues)-1 && c.cfg.Renaming == RenameConditional && c.dbUsed >= c.cfg.DataBufSize {
			return resDataBuf
		}
	}
	if e.op.Class == isa.Store && c.osca != nil && !c.osca.CanInc(e.op.Addr, e.op.Size) {
		return resOSCA
	}
	return resNone
}

// exitRename performs the rename work at the S-IQ0 exit: source mappings
// are captured; the destination either receives a fresh register (issue,
// or every op under conventional renaming) or shares the current mapping
// with an incremented ProducerCount (pass under conditional renaming).
func (c *Core) exitRename(e *opEntry, issuing bool) {
	op := e.op
	if !e.preAlloc {
		c.captureSources(e)
	}
	if op.HasDst() {
		if issuing || c.cfg.Renaming == RenameConventional {
			newP, oldP, ok := c.rf.Allocate(op.Dst)
			if !ok {
				panic("core: allocate failed after resource check")
			}
			e.newP, e.oldP, e.dstP = newP, oldP, newP
			c.Acct.Inc(c.hRAT, energy.Write, 1)
			c.Acct.Inc(c.hFL, energy.Read, 1)
			c.log.Push(regfile.RecoveryEntry{Seq: op.Seq, Arch: op.Dst, Old: oldP, New: newP})
			c.Acct.Inc(c.hLog, energy.Write, 1)
		} else {
			e.dstP = c.rf.Lookup(op.Dst)
			c.rf.AddProducer(e.dstP)
			c.Acct.Inc(c.hScbd, energy.Write, 1)
		}
		c.lastWriter[op.Dst] = e
	}
	if e.preAlloc {
		return // ROB and SQ/LQ slots were reserved by the group rename
	}
	c.dispatchMemEntry(e)
	c.rob.pushBack(e)
	c.Acct.Inc(c.hROB, energy.Write, 1)
}

// dispatchMemEntry allocates the LSU tracking entry for a memory op
// leaving the first S-IQ.
func (c *Core) dispatchMemEntry(e *opEntry) {
	switch e.op.Class {
	case isa.Store:
		c.sq.Dispatch(e.op.Seq, e.op.PC)
		c.Acct.Inc(c.hSQ, energy.Write, 1)
	case isa.Load:
		if c.lq != nil {
			c.lq.Dispatch(e.op.Seq, e.op.PC)
			c.Acct.Inc(c.hLQ, energy.Write, 1)
		}
	}
}

// captureSources records the source mappings (and, under conditional
// renaming, the producing in-flight ops) as of this rename point.
func (c *Core) captureSources(e *opEntry) {
	op := e.op
	e.srcP1 = c.rf.Lookup(op.Src1)
	e.srcP2 = c.rf.Lookup(op.Src2)
	if c.cfg.Renaming == RenameConditional {
		// lastWriter only holds in-flight entries (commit clears it), so
		// the captured Seq is the producer's own — the pair stays valid
		// across the producer's recycling (see liveProducer).
		if op.Src1.Valid() {
			if lw := c.lastWriter[op.Src1]; lw != nil {
				e.prod1, e.prodSeq1 = lw, lw.op.Seq
			}
		}
		if op.Src2.Valid() {
			if lw := c.lastWriter[op.Src2]; lw != nil {
				e.prod2, e.prodSeq2 = lw, lw.op.Seq
			}
		}
	}
}

// recordProducerDistance logs the §II-C distance metric: how many IQ
// entries separate a passed instruction from its in-IQ producer.
func (c *Core) recordProducerDistance(e *opEntry) {
	last := len(c.queues) - 1
	q := &c.queues[last]
	for _, pr := range [...]struct {
		p   *opEntry
		seq uint64
	}{{e.prod1, e.prodSeq1}, {e.prod2, e.prodSeq2}} {
		p := liveProducer(pr.p, pr.seq)
		if p == nil || p.issued || int(p.queue) != last {
			continue
		}
		// The IQ is age-ordered (oldest at 0, Seq strictly increasing), so
		// the producer's slot is found by binary search on Seq rather than
		// the reverse linear scan this used to do per passed instruction.
		lo, hi := 0, q.len()
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.at(mid).op.Seq < p.op.Seq {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < q.len() && q.at(lo) == p {
			c.ProducerDist.Add(q.len() - 1 - lo)
			return
		}
	}
}

// issueOp executes the instruction and records completion bookkeeping.
func (c *Core) issueOp(e *opEntry, now int64, fromSIQ bool) {
	op := e.op
	e.issued = true
	e.issueCycle = now
	e.queue = -1
	c.CountFU(op.Class)
	c.Acct.Inc(c.hPRF, energy.Read, 2)

	switch op.Class {
	case isa.Load:
		e.done = c.issueLoad(e, now, fromSIQ)
	case isa.Store:
		e.done = c.issueStore(e, now)
	case isa.Branch:
		e.done = now + int64(op.Class.ExecLatency())
		c.FE.BranchResolved(op.Seq, e.done)
	default:
		e.done = now + int64(op.Class.ExecLatency())
	}
	// A completion next cycle needs no wakeup: this issue already makes the
	// current cycle non-idle, so no jump can start before the effect lands.
	if e.done > now+1 {
		c.WQ.Wake(e.done)
	}

	if e.newP != regfile.PRegNone {
		c.rf.SetReadyAt(e.newP, e.done)
	} else if op.HasDst() {
		// IQ issue under conditional renaming: shared register, result
		// goes to the data buffer until commit.
		c.rf.RemoveProducer(e.dstP)
		if e.done > c.rf.ReadyAt(e.dstP) {
			c.rf.SetReadyAt(e.dstP, e.done)
		}
		c.dbUsed++
		e.hasDB = true
		c.Acct.Inc(c.hDB, energy.Write, 1)
	}

	if fromSIQ {
		if op.Class.IsMem() {
			c.IssuedSIQMem++
		} else {
			c.IssuedSIQNonMem++
		}
		c.Emit(now, op.Seq, ptrace.KindIssueSpec)
	} else {
		if op.Class.IsMem() {
			c.IssuedIQMem++
		} else {
			c.IssuedIQNonMem++
		}
		c.Emit(now, op.Seq, ptrace.KindIssue)
	}
	c.Emit(e.done, op.Seq, ptrace.KindComplete)
}

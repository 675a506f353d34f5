package core

import (
	"casino/internal/isa"
	"casino/internal/ptrace"
)

// SetPipeTrace installs (or removes, with nil) a pipeline-event recorder.
// The front end shares the recorder so fetch events join the same stream.
func (c *Core) SetPipeTrace(rec *ptrace.Recorder) {
	c.pt = rec
	c.fe.SetPipeTrace(rec)
}

// CPIStack exposes the per-cycle stall attribution accumulated so far.
func (c *Core) CPIStack() *ptrace.CPI { return &c.cpi }

// Recycle returns pooled resources (the branch predictor) at end of run.
// The core must not be cycled afterwards.
func (c *Core) Recycle() { c.fe.RecyclePredictor() }

func (c *Core) emit(cycle int64, seq uint64, k ptrace.Kind) {
	if c.pt != nil {
		c.pt.Emit(ptrace.Event{Cycle: cycle, Seq: seq, Kind: k})
	}
}

// tickCPI attributes the cycle that just executed to exactly one CPI
// bucket and, when a recorder is active, publishes non-base cycles as
// stall events tagged with the culprit instruction. It runs after every
// pipeline stage of the cycle and uses only side-effect-free probes, so
// the attribution never perturbs the energy accounting.
func (c *Core) tickCPI(now int64, committed0, flushes0 uint64) {
	b, seq := c.classifyCycle(now, committed0, flushes0)
	c.cpi.Add(b)
	if c.pt != nil && b != ptrace.BucketBase {
		c.pt.Emit(ptrace.Event{Cycle: now, Seq: seq, Kind: ptrace.KindStall, Stall: b})
	}
}

// classifyCycle decides the cycle's CPI bucket: base if anything committed,
// replay if a flush fired, otherwise the reason the oldest in-flight
// instruction (the commit bottleneck) has not retired yet.
func (c *Core) classifyCycle(now int64, committed0, flushes0 uint64) (ptrace.Bucket, uint64) {
	if c.committed > committed0 {
		return ptrace.BucketBase, 0
	}
	if c.Flushes > flushes0 {
		return ptrace.BucketReplay, 0
	}
	if c.rob.len() > 0 {
		e := c.robAt(0)
		if e.issued {
			if e.op.Class.IsMem() {
				return ptrace.BucketDCache, e.op.Seq
			}
			return ptrace.BucketExec, e.op.Seq
		}
		// Unissued ROB head still sits in a scheduling queue (pre-allocated
		// window entries included); ask the queue's own readiness probe.
		last := len(c.queues) - 1
		var ready bool
		if int(e.queue) == last {
			ready = c.peekCapturedReady(e, now)
		} else {
			ready = c.peekSIQReady(int(e.queue), e, now)
		}
		if !ready {
			return ptrace.BucketSrc, e.op.Seq
		}
		return c.issueBlockBucket(e), e.op.Seq
	}
	// Empty ROB: the oldest in-flight instruction, if any, is the head of
	// the first S-IQ (anything passed or pre-allocated would be in the ROB).
	if q := &c.queues[0]; q.len() > 0 {
		e := q.at(0)
		if !c.exitResourcesOK(0, e, 0) {
			return ptrace.BucketROBSQ, e.op.Seq
		}
		if c.peekSIQReady(0, e, now) {
			return c.issueBlockBucket(e), e.op.Seq
		}
		// Not ready, so the head wants to pass; mirror the pass path's
		// resource checks (diagnoseHeadStall order).
		if len(c.queues) > 1 && c.queues[1].len() >= c.queues[1].cap() {
			return ptrace.BucketIQFull, e.op.Seq
		}
		if !c.peekPassResources(0, e) {
			if c.cfg.Renaming == RenameConventional {
				return ptrace.BucketPReg, e.op.Seq
			}
			return ptrace.BucketProdCount, e.op.Seq
		}
		return ptrace.BucketSrc, e.op.Seq
	}
	if !c.fe.Done() {
		return ptrace.BucketICache, 0
	}
	return ptrace.BucketDrain, 0
}

// issueBlockBucket mirrors issueResourcesOK for a ready-but-stuck entry:
// which resource is the issue path missing.
func (c *Core) issueBlockBucket(e *opEntry) ptrace.Bucket {
	fromSIQ := int(e.queue) < len(c.queues)-1
	if e.op.HasDst() {
		if fromSIQ && e.queue == 0 && !c.rf.CanAllocate(e.op.Dst) {
			return ptrace.BucketPReg
		}
		if !fromSIQ && c.cfg.Renaming == RenameConditional && c.dbUsed >= c.cfg.DataBufSize {
			return ptrace.BucketDataBuf
		}
	}
	if e.op.Class == isa.Store && c.osca != nil && !c.osca.PeekCanInc(e.op.Addr, e.op.Size) {
		return ptrace.BucketReplay
	}
	return ptrace.BucketFU
}

// peekSIQReady mirrors siqReady without its RAT/scoreboard charges, so the
// classifier never perturbs the activity counts the energy model bills.
func (c *Core) peekSIQReady(qi int, e *opEntry, now int64) bool {
	if c.cfg.Disambig == DisambigAGIOrder && e.op.Class.IsMem() {
		return false
	}
	if qi == 0 && !e.preAlloc {
		for _, s := range [...]isa.Reg{e.op.Src1, e.op.Src2} {
			if !s.Valid() {
				continue
			}
			if c.cfg.Renaming == RenameConditional {
				lw := c.lastWriter[s]
				switch {
				case lw == nil:
					// Producer committed; value architectural.
				case lw.op.Seq < e.op.Seq:
					if !lw.issued || lw.done > now {
						return false
					}
				default:
					p := c.rf.PeekMapping(s)
					if c.rf.Producers(p) > 0 || c.rf.PeekReadyAt(p) > now {
						return false
					}
				}
				continue
			}
			if c.rf.PeekReadyAt(c.rf.PeekMapping(s)) > now {
				return false
			}
		}
		return true
	}
	return c.peekCapturedReady(e, now)
}

// peekCapturedReady checks readiness through the captured producer pairs
// (conditional renaming) or the entry's own renamed sources (conventional);
// it is the read-only mirror of iqReady, the final-IQ head check.
func (c *Core) peekCapturedReady(e *opEntry, now int64) bool {
	if c.cfg.Renaming == RenameConditional {
		for _, pr := range [...]struct {
			p   *opEntry
			seq uint64
		}{{e.prod1, e.prodSeq1}, {e.prod2, e.prodSeq2}} {
			if p := liveProducer(pr.p, pr.seq); p != nil && (!p.issued || p.done > now) {
				return false
			}
		}
		return true
	}
	return c.rf.PeekReadyAt(e.srcP1) <= now && c.rf.PeekReadyAt(e.srcP2) <= now
}

// peekPassResources mirrors passResourcesOK without the RAT access count.
func (c *Core) peekPassResources(qi int, e *opEntry) bool {
	if qi != 0 || !e.op.HasDst() {
		return true
	}
	if c.cfg.Renaming == RenameConventional {
		return c.rf.CanAllocate(e.op.Dst)
	}
	return c.rf.CanAddProducer(c.rf.PeekMapping(e.op.Dst))
}

package core

import "casino/internal/ptrace"

// classifyCycle decides the cycle's CPI bucket: base if anything committed,
// replay if a flush fired, otherwise the reason the oldest in-flight
// instruction (the commit bottleneck) has not retired yet. It runs after
// every pipeline stage of the cycle and asks the scheduler's own
// predicates, which have no side effects (the scheduler bills their reads
// at its call site), so the attribution never perturbs the energy
// accounting.
func (c *Core) classifyCycle(now int64, committed0, flushes0 uint64) (ptrace.Bucket, uint64) {
	if c.Commits > committed0 {
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
		// window entries included); ask the queue's own readiness check.
		var ready bool
		if int(e.queue) == len(c.queues)-1 {
			ready, _ = c.iqReady(e, now)
		} else {
			ready, _, _ = c.siqReady(int(e.queue), e, now)
		}
		if !ready {
			return ptrace.BucketSrc, e.op.Seq
		}
		return issueBucket[c.missingResource(e)], e.op.Seq
	}
	// Empty ROB: the oldest in-flight instruction, if any, is the head of
	// the first S-IQ (anything passed or pre-allocated would be in the ROB).
	if q := &c.queues[0]; q.len() > 0 {
		e := q.at(0)
		if !c.exitResourcesOK(0, e, 0) {
			return ptrace.BucketROBSQ, e.op.Seq
		}
		if ready, _, _ := c.siqReady(0, e, now); ready {
			return issueBucket[c.missingResource(e)], e.op.Seq
		}
		// Not ready, so the head wants to pass; mirror the pass path's
		// resource checks (diagnoseHeadStall order).
		if len(c.queues) > 1 && c.queues[1].len() >= c.queues[1].cap() {
			return ptrace.BucketIQFull, e.op.Seq
		}
		if !c.passResourcesOK(0, e) {
			if c.cfg.Renaming == RenameConventional {
				return ptrace.BucketPReg, e.op.Seq
			}
			return ptrace.BucketProdCount, e.op.Seq
		}
		return ptrace.BucketSrc, e.op.Seq
	}
	if !c.FE.Done() {
		return ptrace.BucketICache, 0
	}
	return ptrace.BucketDrain, 0
}

// issueBucket is the CPI bucket of a ready entry that did not issue,
// indexed by the resource it lacks (none: the FUs or issue slots were
// taken).
var issueBucket = [...]ptrace.Bucket{
	resNone:    ptrace.BucketFU,
	resPReg:    ptrace.BucketPReg,
	resDataBuf: ptrace.BucketDataBuf,
	resOSCA:    ptrace.BucketReplay,
}

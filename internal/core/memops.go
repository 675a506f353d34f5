package core

import (
	"casino/internal/energy"
	"casino/internal/isa"
)

// issueLoad performs a load's issue-time disambiguation work (§III-C4,
// §IV-2) and returns its completion cycle.
//
// Speculative path (issue from an S-IQ stage): the OSCA is consulted
// first; only a non-zero counter forces the SQ/SB CAM search. Whether or
// not the CAM search ran, an older unresolved store gets a sentinel and
// marks the load speculative, to be validated at commit.
//
// In-order path (issue from the final IQ): every older store has already
// issued, so addresses are all resolved — the search (if the OSCA demands
// one) is only for store-to-load forwarding, and no sentinel is needed.
func (c *Core) issueLoad(e *opEntry, now int64, fromSIQ bool) int64 {
	op := e.op
	agu := now + int64(op.Class.ExecLatency())
	forwarded := false

	// TSO load-load ordering (§III-C4): a load performed ahead of an
	// older non-performed load guards its cache line with a sentinel so
	// remote stores cannot slip between them.
	c.remote.observeLoad(op.Addr)
	if c.anyOlderUnperformedLoad(op.Seq, now) {
		c.lineSent.set(op.Addr, op.Seq)
		e.lineSent = true
	}

	if c.lq != nil {
		// Fully-OoO baseline: conventional LQ tracking; forwarding search
		// only, violations are caught by resolving stores.
		c.lq.MarkIssued(op.Seq, op.Addr, op.Size)
		c.Acct.Inc(c.hLQ, energy.Write, 1)
		res := c.sq.SearchForLoad(op.Seq, op.Addr, op.Size, false)
		c.Acct.Inc(c.hSQ, energy.Search, 1)
		if res.Forward != nil {
			c.LoadsForwarded++
			return agu + int64(c.Hier.Config().L1Latency)
		}
		done, _ := c.Hier.Load(op.PC, op.Addr, agu)
		c.Acct.L1Access++
		return done
	}

	maySearch := true
	if c.osca != nil {
		c.Acct.Inc(c.hOSCA, energy.Read, 1)
		maySearch = c.osca.LoadMaySearch(op.Addr, op.Size)
	}

	speculative := fromSIQ && c.cfg.Disambig != DisambigAGIOrder
	if maySearch {
		res := c.sq.SearchForLoad(op.Seq, op.Addr, op.Size, false)
		c.Acct.Inc(c.hSQ, energy.Search, 1)
		if res.Forward != nil {
			forwarded = true
			c.LoadsForwarded++
		}
		if speculative && res.OldestUnresolved != nil {
			c.sq.SetSentinel(res.OldestUnresolved, op.Seq)
			e.sentinel = true
			e.specLoad = true
		}
	} else if speculative {
		// OSCA filtered the CAM search: only the per-entry Resolved flags
		// are examined to guard against older unresolved stores (§IV-2).
		c.Acct.Inc(c.hSQ, energy.Read, 1)
		if st := c.sq.OldestUnresolvedOlder(op.Seq); st != nil {
			c.sq.SetSentinel(st, op.Seq)
			e.sentinel = true
			e.specLoad = true
		}
	}

	if forwarded {
		return agu + int64(c.Hier.Config().L1Latency)
	}
	done, _ := c.Hier.Load(op.PC, op.Addr, agu)
	c.Acct.L1Access++
	return done
}

// issueStore resolves the store's address in the SQ and counts it in the
// OSCA; the cache update happens later, at retirement from the SB head.
func (c *Core) issueStore(e *opEntry, now int64) int64 {
	op := e.op
	agu := now + int64(op.Class.ExecLatency())
	c.sq.Resolve(op.Seq, op.Addr, op.Size, agu, agu)
	c.Acct.Inc(c.hSQ, energy.Write, 1)
	if c.osca != nil {
		c.osca.Inc(op.Addr, op.Size)
		c.Acct.Inc(c.hOSCA, energy.Write, 1)
	}
	if c.lq != nil {
		// Conventional disambiguation: search the LQ for younger issued
		// loads that read this address too early.
		c.Acct.Inc(c.hLQ, energy.Search, 1)
		if loadSeq, _, hit := c.lq.SearchViolation(op.Seq, op.Addr, op.Size); hit {
			c.flushFrom(loadSeq, now)
			c.flushed = true
		}
	}
	return agu
}

// anyOlderUnperformedLoad reports whether a load older than seq has not
// yet completed (the load-load speculation condition of §III-C4).
func (c *Core) anyOlderUnperformedLoad(seq uint64, now int64) bool {
	for i := 0; i < c.rob.len(); i++ {
		e := c.robAt(i)
		if e.op.Seq >= seq {
			break
		}
		if e.op.Class == isa.Load && (!e.issued || e.done > now) {
			return true
		}
	}
	return false
}

package core

import "casino/internal/pipeline"

// State reports the counters and occupancies a working cycle moves for the
// shell's progress signature. The queue lengths fold positionally so a
// pass (which conserves total occupancy but moves an entry between queues)
// still changes the signature.
func (c *Core) State() (s pipeline.State) {
	qh := 0
	for i := range c.queues {
		qh = qh*257 + c.queues[i].len()
	}
	s[0] = c.Flushes
	s[1] = uint64(qh)
	s[2] = uint64(c.rob.len())
	s[3] = uint64(c.sq.Len())
	s[4] = uint64(c.dbUsed)
	if c.lq != nil {
		s[5] = uint64(c.lq.Len())
	}
	if c.remote != nil {
		s[6] = c.remote.Invalidations
	}
	return s
}

// CanDispatch reports whether a buffered op finds a slot in the first
// S-IQ.
func (c *Core) CanDispatch() bool {
	return c.FE.BufLen() > 0 && c.queues[0].len() < c.queues[0].cap()
}

// ProgressSignature folds the shell's progress counters and State into one
// value.
func (c *Core) ProgressSignature() uint64 {
	s := c.State()
	return c.Signature(&s)
}

package ooo

import "casino/internal/pipeline"

// State reports the counters and occupancies a working cycle moves —
// flushes, the ROB, the scheduler, the SQ and the LQ — for the shell's
// progress signature.
func (c *Core) State() (s pipeline.State) {
	s[0] = c.Flushes
	s[1] = uint64(c.n)
	s[2] = uint64(c.iqN)
	s[3] = uint64(c.sq.Len())
	if c.lq != nil {
		s[4] = uint64(c.lq.Len())
	}
	return s
}

// CanDispatch asks dispatch's own gate about the op at the front-end
// head.
func (c *Core) CanDispatch() bool {
	op := c.FE.Peek(0)
	return op != nil && c.canDispatch(op)
}

// ProgressSignature folds the shell's progress counters and State into one
// value.
func (c *Core) ProgressSignature() uint64 {
	s := c.State()
	return c.Signature(&s)
}

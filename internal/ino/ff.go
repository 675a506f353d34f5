package ino

import "casino/internal/pipeline"

// State reports the occupancies a working cycle moves — the IQ, the SCB
// window and the store buffer — for the shell's progress signature.
func (c *Core) State() (s pipeline.State) {
	s[0] = uint64(c.iq.len())
	s[1] = uint64(c.win.len())
	s[2] = uint64(c.sb.Len())
	return s
}

// CanDispatch reports whether a buffered op finds an IQ slot: dispatch's
// own gate, which the wakeup queue does not track.
func (c *Core) CanDispatch() bool { return c.FE.BufLen() > 0 && c.iq.len() < c.cfg.IQSize }

// ProgressSignature folds the shell's progress counters and State into one
// value.
func (c *Core) ProgressSignature() uint64 {
	s := c.State()
	return c.Signature(&s)
}

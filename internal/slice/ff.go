package slice

import "casino/internal/pipeline"

// State reports the occupancies a working cycle moves — the window, the
// A-, B- and Y-IQs and the store buffer — for the shell's progress
// signature.
func (c *Core) State() (s pipeline.State) {
	s[0] = uint64(c.window.len())
	s[1] = uint64(c.aq.len())
	s[2] = uint64(c.bq.len())
	s[3] = uint64(c.yq.len())
	s[4] = uint64(c.sb.Len())
	return s
}

// CanDispatch asks dispatch's own steering (Freeway's Y-IQ decision
// included) whether the op at the front-end head finds a window slot and
// room in its queue.
func (c *Core) CanDispatch() bool {
	op := c.FE.Peek(0)
	if op == nil || c.window.len() >= c.window.cap() {
		return false
	}
	q, _, _, _ := c.steer(op)
	return q.len() < q.cap()
}

// ProgressSignature folds the shell's progress counters and State into one
// value.
func (c *Core) ProgressSignature() uint64 {
	s := c.State()
	return c.Signature(&s)
}

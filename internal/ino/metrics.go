package ino

import "casino/internal/stats"

// PublishMetrics snapshots the core's counters and occupancy histograms
// into the registry. Scalar names match the legacy Result.Extra keys.
func (c *Core) PublishMetrics(r *stats.Registry) {
	r.Counter("mispredicts", c.Mispredicts())
	r.Counter("forwards", c.LoadsForwarded)
	r.Counter("stall.src", c.IssueStallsSrc)
	r.Counter("stall.res", c.IssueStallsRes)
	r.Hist("occ.iq", c.OccIQ)
	r.Hist("occ.scb", c.OccSCB)
	r.Hist("occ.sb", c.OccSB)
	c.CPI.Publish(r)
}

package ooo

import "casino/internal/stats"

// PublishMetrics snapshots the core's counters and occupancy histograms
// into the registry. Scalar names match the legacy Result.Extra keys.
func (c *Core) PublishMetrics(r *stats.Registry) {
	r.Counter("mispredicts", c.Mispredicts())
	r.Counter("violations", c.Violations)
	r.Counter("flushes", c.Flushes)
	r.Counter("forwards", c.LoadsForwarded)
	r.Counter("specLoads", c.SpecLoads)
	r.Hist("occ.rob", c.OccROB)
	r.Hist("occ.iq", c.OccIQ)
	r.Hist("occ.sq", c.OccSQ)
	if c.OccLQ != nil {
		r.Hist("occ.lq", c.OccLQ)
	}
	c.CPI.Publish(r)
}

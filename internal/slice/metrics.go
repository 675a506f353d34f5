package slice

import "casino/internal/stats"

// PublishMetrics snapshots the core's counters and occupancy histograms
// into the registry. Scalar names match the legacy Result.Extra keys.
func (c *Core) PublishMetrics(r *stats.Registry) {
	r.Counter("mispredicts", c.Mispredicts())
	r.Counter("sliceOps", c.SliceOps)
	r.Counter("yieldedOps", c.YieldedOps)
	r.Counter("forwards", c.Forwards)
	r.Hist("occ.aq", c.OccAQ)
	r.Hist("occ.bq", c.OccBQ)
	if c.OccYQ != nil {
		r.Hist("occ.yq", c.OccYQ)
	}
	r.Hist("occ.window", c.OccWindow)
	r.Hist("occ.sb", c.OccSB)
	c.CPI.Publish(r)
}

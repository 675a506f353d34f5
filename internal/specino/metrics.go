package specino

import "casino/internal/stats"

// PublishMetrics snapshots the limit-study model's counters into the
// registry. Scalar names match the legacy Result.Extra keys.
func (c *Core) PublishMetrics(r *stats.Registry) {
	r.Counter("specIssued", c.SpecIssued)
	r.Counter("headIssued", c.HeadIssued)
	r.Counter("oooIssued", c.OoOIssued)
	r.Gauge("specFrac", c.SpecFraction())
	r.Gauge("oooFrac", c.OoOFraction())
	c.CPI.Publish(r)
}

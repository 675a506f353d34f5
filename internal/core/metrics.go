package core

import "casino/internal/stats"

// PublishMetrics snapshots the core's counters and histograms into the
// registry. Scalar names match the legacy Result.Extra keys so existing
// figure drivers and examples keep reading the same metrics; the occupancy
// and stall series are new. Counts cover the whole run (warm-up included).
func (c *Core) PublishMetrics(r *stats.Registry) {
	r.Counter("mispredicts", c.Mispredicts())
	r.Counter("violations", c.Violations)
	r.Counter("flushes", c.Flushes)
	r.Counter("regAllocs", c.RegAllocs())
	r.Counter("sqSearches", c.sq.Searches)
	r.Counter("loadsForwarded", c.LoadsForwarded)
	r.Counter("siqMem", c.IssuedSIQMem)
	r.Counter("siqNonMem", c.IssuedSIQNonMem)
	r.Counter("iqMem", c.IssuedIQMem)
	r.Counter("iqNonMem", c.IssuedIQNonMem)
	r.Counter("passedToIQ", c.PassedToIQ)
	total := c.IssuedSIQMem + c.IssuedSIQNonMem + c.IssuedIQMem + c.IssuedIQNonMem
	r.SetRatio("siqFrac", float64(c.IssuedSIQMem+c.IssuedSIQNonMem), float64(total))
	r.Gauge("producerDist", c.ProducerDist.Mean())
	if c.osca != nil {
		r.Counter("oscaLookups", c.osca.Lookups)
		r.Counter("oscaSkips", c.osca.Skips)
	}
	set, cleared, _ := c.LineSentinels()
	r.Counter("lineSentinelsSet", set)
	r.Counter("lineSentinelsCleared", cleared)
	invals, withheld, delay := c.RemoteStats()
	r.Counter("remoteInvals", invals)
	r.Counter("remoteWithheld", withheld)
	r.Counter("remoteDelayCyc", delay)

	r.Counter("stall.iqFull", c.StallIQFull)
	r.Counter("stall.preg", c.StallPReg)
	r.Counter("stall.prodCount", c.StallProdCount)
	r.Counter("stall.robSQ", c.StallROBSQ)
	r.Counter("stall.fu", c.StallFU)
	r.Counter("stall.dataBuf", c.StallDataBuf)

	r.Hist("occ.siq", c.OccSIQ)
	r.Hist("occ.iq", c.OccIQ)
	r.Hist("occ.rob", c.OccROB)
	r.Hist("occ.sq", c.OccSQ)
	c.CPI.Publish(r)
}

package specino

import (
	"testing"

	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/mem"
	"casino/internal/workload"
)

// TestWakeupMatchesScan is the reference for the producer-push readiness
// state. After every cycle, each unissued entry's pending count must be
// zero exactly when a scan of the window finds every producer issued, and
// max(readyT, now) must equal the scan's latest producer completion floored
// at now. A source's producer is its youngest older in-window writer; a
// load's is also its youngest older overlapping in-window store. A producer
// that has left the window committed, so it completed before now.
func TestWakeupMatchesScan(t *testing.T) {
	nonMem := func(c Config) Config {
		c.NonMemOnly = true
		return c
	}
	for _, cfg := range []Config{
		DefaultConfig(2, 1), nonMem(DefaultConfig(2, 1)),
		DefaultConfig(2, 2), nonMem(DefaultConfig(2, 2)),
		DefaultConfig(4, 2),
	} {
		var fwdLive, fwdUnissued int
		for _, name := range workload.Names() {
			p, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := workload.Generate(p, 3000, 1)
			c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
			for cyc := 0; cyc < 10_000_000 && !c.Done(); cyc++ {
				c.Cycle()
				for i := 0; i < c.n; i++ {
					if c.unissued&(uint64(1)<<uint(i)) == 0 {
						continue
					}
					op := c.ops[i]
					blocked, r := false, c.Clock
					dep := func(j int) {
						switch {
						case j < 0:
						case c.unissued&(uint64(1)<<uint(j)) != 0:
							blocked = true
						case c.done[j] > r:
							r = c.done[j]
						}
					}
					for _, src := range [...]isa.Reg{op.Src1, op.Src2} {
						if src.Valid() {
							dep(youngestOlder(c, i, func(o *isa.MicroOp) bool { return o.Dst == src }))
						}
					}
					if op.Class == isa.Load {
						j := youngestOlder(c, i, func(o *isa.MicroOp) bool { return o.Class == isa.Store && o.Overlaps(op) })
						if j >= 0 {
							fwdLive++
							if c.unissued&(uint64(1)<<uint(j)) != 0 {
								fwdUnissued++
							}
						}
						dep(j)
					}
					if got := max(c.readyT[i], c.Clock); (c.pending[i] == 0) == blocked || got != r {
						t.Fatalf("[%d,%d] nonmem=%v %s cycle %d: seq %d pending=%d ready at %d, scan says blocked=%v ready at %d",
							cfg.WS, cfg.SO, cfg.NonMemOnly, name, c.Clock-1, op.Seq, c.pending[i], got, blocked, r)
					}
				}
			}
			if !c.Done() {
				t.Fatalf("[%d,%d] nonmem=%v %s: livelock", cfg.WS, cfg.SO, cfg.NonMemOnly, name)
			}
		}
		t.Logf("[%d,%d] nonmem=%v: %d entry-cycles with a live forwarding store, %d of them unissued",
			cfg.WS, cfg.SO, cfg.NonMemOnly, fwdLive, fwdUnissued)
		if fwdUnissued == 0 {
			t.Errorf("[%d,%d] nonmem=%v: store-forwarding dependence never exercised", cfg.WS, cfg.SO, cfg.NonMemOnly)
		}
	}
}

// youngestOlder returns the index of the youngest window entry older than i
// that match accepts, or -1.
func youngestOlder(c *Core, i int, match func(*isa.MicroOp) bool) int {
	for j := i - 1; j >= 0; j-- {
		if match(c.ops[j]) {
			return j
		}
	}
	return -1
}

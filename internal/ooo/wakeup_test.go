package ooo

import (
	"testing"

	"casino/internal/energy"
	"casino/internal/mem"
	"casino/internal/regfile"
	"casino/internal/workload"
)

// TestWakeFilterMatchesScan is the reference for the scoreboard's
// candidate bitmap. After every cycle, each slot waiting in the scheduler
// must have its wake bit set exactly when a walk of the ROB finds every
// source producer issued. A source's producer is the youngest older entry
// whose newP is that source; no such entry means the producer committed.
func TestWakeFilterMatchesScan(t *testing.T) {
	for _, width := range []int{2, 4} {
		for _, nolq := range []bool{false, true} {
			cfg := WideConfig(width)
			cfg.NoLQ = nolq
			var raised, held int
			for _, name := range workload.Names() {
				p, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				tr := workload.Generate(p, 3000, 1)
				c := New(cfg, tr, mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
				writer := make([]*robEntry, c.rf.NumPhys())
				issued := func(p regfile.PReg) bool {
					return p == regfile.PRegNone || writer[p] == nil || writer[p].issued
				}
				for cyc := 0; cyc < 10_000_000 && !c.Done(); cyc++ {
					c.Cycle()
					clear(writer)
					wake := c.rf.WakeWords()
					for k := 0; k < c.n; k++ {
						j := (c.head + k) % len(c.rob)
						e := &c.rob[j]
						bit := uint64(1) << uint(j&63)
						if c.iqMask[j>>6]&bit != 0 {
							want := issued(e.srcP1) && issued(e.srcP2)
							if got := wake[j>>6]&bit != 0; got != want {
								t.Fatalf("width %d nolq=%v %s cycle %d: seq %d wake bit %v, scan says producers issued=%v",
									width, nolq, name, c.Now()-1, e.op.Seq, got, want)
							}
							if want {
								raised++
							} else {
								held++
							}
						}
						if e.newP != regfile.PRegNone {
							writer[e.newP] = e
						}
					}
				}
				if !c.Done() {
					t.Fatalf("width %d nolq=%v %s: livelock", width, nolq, name)
				}
			}
			if raised == 0 || held == 0 {
				t.Errorf("width %d nolq=%v: reference not exercised (raised %d, held %d)", width, nolq, raised, held)
			}
		}
	}
}

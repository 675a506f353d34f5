package mem

import (
	"testing"
	"testing/quick"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache("t", 1<<12, 2) // 4 KiB, 2-way, 32 sets
	if c.Sets() != 32 || c.Ways() != 2 {
		t.Fatalf("geometry: %d sets, %d ways", c.Sets(), c.Ways())
	}
	hit, _, _ := c.Access(0x1000, false)
	if hit {
		t.Error("cold access hit")
	}
	hit, _, _ = c.Access(0x1000, false)
	if !hit {
		t.Error("second access missed")
	}
	hit, _, _ = c.Access(0x1004, false)
	if !hit {
		t.Error("same-line access missed")
	}
	hit, _, _ = c.Access(0x1040, false)
	if hit {
		t.Error("next-line access hit cold")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("accesses=%d misses=%d", c.Accesses, c.Misses)
	}
	if r := c.MissRate(); r != 0.5 {
		t.Errorf("MissRate = %v", r)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", 2*BlockSize, 2) // 1 set, 2 ways
	a, b, d := uint64(0), uint64(BlockSize), uint64(2*BlockSize)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a evicted, should have been kept (MRU)")
	}
	if c.Probe(b) {
		t.Error("b not evicted")
	}
	if !c.Probe(d) {
		t.Error("d not present")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache("t", 2*BlockSize, 2)
	c.Access(0, true) // dirty
	c.Access(BlockSize, false)
	_, wb, victim := c.Access(2*BlockSize, false)
	if !wb || victim != 0 {
		t.Errorf("expected dirty writeback of line 0, got wb=%v victim=%#x", wb, victim)
	}
	if c.DirtyEvs != 1 {
		t.Errorf("DirtyEvs = %d", c.DirtyEvs)
	}
}

func TestCacheFillDoesNotCountDemand(t *testing.T) {
	c := NewCache("t", 1<<12, 2)
	c.Fill(0x2000)
	if c.Accesses != 0 || c.Misses != 0 {
		t.Errorf("Fill counted as demand: acc=%d miss=%d", c.Accesses, c.Misses)
	}
	if !c.Probe(0x2000) {
		t.Error("Fill did not install line")
	}
	hit, _, _ := c.Access(0x2000, false)
	if !hit {
		t.Error("access after Fill missed")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache("t", 1<<12, 2)
	c.Access(0x1000, true)
	c.Reset()
	if c.Probe(0x1000) || c.Accesses != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache("bad", 100, 2) },       // non power-of-two sets
		func() { NewCache("bad", BlockSize, 4) }, // size < ways*Block
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			f()
		}()
	}
}

// Property: cache contents track a reference model of the last `ways`
// distinct lines per set (true LRU).
func TestCacheLRUProperty(t *testing.T) {
	f := func(seq []uint16) bool {
		c := NewCache("p", 4*BlockSize, 2) // 2 sets, 2 ways
		type key struct{ set int }
		ref := map[int][]uint64{} // set -> lines in MRU order
		for _, x := range seq {
			addr := uint64(x) * 32
			line := LineAddr(addr)
			set := int(line % 2)
			c.Access(addr, false)
			lines := ref[set]
			// remove if present
			for i, l := range lines {
				if l == line {
					lines = append(lines[:i], lines[i+1:]...)
					break
				}
			}
			lines = append([]uint64{line}, lines...)
			if len(lines) > 2 {
				lines = lines[:2]
			}
			ref[set] = lines
		}
		for set, lines := range ref {
			_ = set
			for _, l := range lines {
				if !c.Probe(l << BlockBits) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDRAMRowBehavior(t *testing.T) {
	d := NewDRAM()
	t0 := d.Access(0, false, 0)
	if d.RowMisses != 1 || d.RowHits != 0 {
		t.Fatalf("first access: hits=%d misses=%d", d.RowHits, d.RowMisses)
	}
	// Same row (same bank): row hit, faster.
	t1 := d.Access(0, false, t0)
	if d.RowHits != 1 {
		t.Errorf("same-row access not a row hit")
	}
	if t1-t0 >= t0 {
		t.Errorf("row hit (%d cyc) not faster than cold activate (%d cyc)", t1-t0, t0)
	}
	// Different row, same bank: conflict.
	conflictAddr := d.rowBytes * uint64(d.banks) // row 1, bank 0
	if d.bankOf(conflictAddr) != 0 {
		t.Fatalf("test address maps to bank %d, want 0", d.bankOf(conflictAddr))
	}
	t2 := d.Access(conflictAddr, false, t1)
	if d.RowConfl != 1 {
		t.Errorf("conflict not detected: confl=%d", d.RowConfl)
	}
	if t2-t1 <= t1-t0 {
		t.Errorf("row conflict (%d) not slower than row hit (%d)", t2-t1, t1-t0)
	}
}

func TestDRAMBankParallelism(t *testing.T) {
	d := NewDRAM()
	// Two accesses to different banks at t=0 should overlap: the second
	// finishes well before 2x a single access (only bus serializes).
	a1 := d.Access(0, false, 0)
	d.Reset()
	b1 := d.Access(0, false, 0)
	b2 := d.Access(BlockSize, false, 0) // different bank
	if b2 >= 2*a1 {
		t.Errorf("no bank parallelism: single=%d, second of pair=%d", a1, b2)
	}
	_ = b1
}

func TestDRAMRowHitRate(t *testing.T) {
	d := NewDRAM()
	if d.RowHitRate() != 0 {
		t.Error("empty DRAM should report 0 hit rate")
	}
	var tt int64
	for i := 0; i < 10; i++ {
		tt = d.Access(uint64(i*8), false, tt) // same line region → same bank/row after first
	}
	if d.RowHitRate() <= 0.5 {
		t.Errorf("sequential same-row accesses: hit rate %v", d.RowHitRate())
	}
}

func TestMSHRMergeAndCapacity(t *testing.T) {
	m := NewMSHRs(2)
	if _, out := m.Lookup(10, 0); out {
		t.Fatal("empty MSHR reports outstanding")
	}
	s := m.Allocate(10, 0)
	if s != 0 {
		t.Fatalf("first Allocate start = %d", s)
	}
	m.Complete(10, 100)
	if r, out := m.Lookup(10, 50); !out || r != 100 {
		t.Fatalf("Lookup(10@50) = %d,%v want 100,true", r, out)
	}
	if m.Merges != 1 {
		t.Errorf("Merges = %d", m.Merges)
	}
	// After completion time, no longer outstanding.
	if _, out := m.Lookup(10, 100); out {
		t.Error("completed fill still outstanding")
	}
	// Fill both slots, third allocation must wait.
	m.Reset()
	m.Allocate(1, 0)
	m.Complete(1, 100)
	m.Allocate(2, 0)
	m.Complete(2, 200)
	start := m.Allocate(3, 0)
	if start != 100 {
		t.Errorf("third miss start = %d, want 100 (earliest slot free)", start)
	}
	if m.Stalls != 1 {
		t.Errorf("Stalls = %d", m.Stalls)
	}
}

func TestPrefetcherStrideDetection(t *testing.T) {
	p := NewStridePrefetcher(2)
	pc := uint64(0x400)
	var got []uint64
	for i := 0; i < 6; i++ {
		got = p.Train(pc, uint64(i)*64)
	}
	if len(got) != 2 {
		t.Fatalf("confident stride produced %d prefetches, want 2", len(got))
	}
	if got[0] != 5*64+64 || got[1] != 5*64+128 {
		t.Errorf("prefetch addrs = %v", got)
	}
	// A stride change resets confidence.
	if out := p.Train(pc, 10000); out != nil {
		t.Errorf("stride break still prefetched: %v", out)
	}
	// Random pattern never grows confident.
	p.Reset()
	for i, a := range []uint64{5, 900, 3, 77, 2000} {
		if out := p.Train(0x800, a); out != nil {
			t.Errorf("random access %d prefetched %v", i, out)
		}
	}
}

func TestHierarchyLoadLevels(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	done, lvl := h.Load(0x400, 0x10000, 0)
	if lvl != LvlMem {
		t.Errorf("cold load level = %v, want Mem", lvl)
	}
	if done < int64(h.cfg.L1Latency+h.cfg.L2Latency) {
		t.Errorf("cold load done=%d implausibly fast", done)
	}
	done2, lvl2 := h.Load(0x400, 0x10000, done)
	if lvl2 != LvlL1 || done2 != done+int64(h.cfg.L1Latency) {
		t.Errorf("warm load: lvl=%v done=%d", lvl2, done2)
	}
	if h.LoadsByLvl[LvlL1] != 1 || h.LoadsByLvl[LvlMem] != 1 {
		t.Errorf("level counters: %v", h.LoadsByLvl)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	h := NewHierarchy(cfg)
	h.Load(0x400, 0x20000, 0)
	// Evict from tiny... L1 is 32 KiB; touch enough lines mapping to the
	// same set to evict 0x20000 from L1 but not from the 1 MiB L2.
	setStride := uint64(h.L1D.Sets() * BlockSize)
	tt := int64(1000)
	for i := 1; i <= h.L1D.Ways(); i++ {
		d, _ := h.Load(0x400, 0x20000+uint64(i)*setStride, tt)
		tt = d
	}
	done, lvl := h.Load(0x400, 0x20000, tt)
	if lvl != LvlL2 {
		t.Fatalf("level = %v, want L2", lvl)
	}
	if want := tt + int64(h.cfg.L1Latency+h.cfg.L2Latency); done != want {
		t.Errorf("L2 hit done = %d, want %d", done, want)
	}
}

func TestHierarchyMergedMisses(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	d1, _ := h.Load(0x400, 0x30000, 0)
	d2, _ := h.Load(0x404, 0x30008, 1) // same line, one cycle later
	if d2 > d1 {
		t.Errorf("merged miss completes at %d, after primary %d", d2, d1)
	}
	_, merges, _ := h.MSHRStats()
	if merges != 1 {
		t.Errorf("merges = %d, want 1", merges)
	}
}

func TestHierarchyMLP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	h := NewHierarchy(cfg)
	// One isolated miss.
	single, _ := h.Load(0x400, 1<<30, 0)
	h.Reset()
	// Eight overlapping misses to distinct banks/lines issued back to back.
	var last int64
	for i := 0; i < 8; i++ {
		d, _ := h.Load(0x400, uint64(1)<<30+uint64(i)*BlockSize, int64(i))
		if d > last {
			last = d
		}
	}
	if last >= 8*single {
		t.Errorf("no MLP: 8 overlapped misses took %d, single=%d", last, single)
	}
}

func TestHierarchyStoreAndFetch(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	done := h.Store(0x400, 0x40000, 0)
	if done <= 0 {
		t.Error("store completion not positive")
	}
	done2 := h.Store(0x400, 0x40000, done)
	if done2 != done+int64(h.cfg.L1Latency) {
		t.Errorf("warm store done = %d", done2)
	}
	f1 := h.Fetch(0x400000, 0)
	f2 := h.Fetch(0x400000, f1)
	if f2 != f1+int64(h.cfg.L1Latency) {
		t.Errorf("warm fetch = %d, want %d", f2, f1+int64(h.cfg.L1Latency))
	}
	if h.Fetches != 2 || h.Stores != 2 {
		t.Errorf("counters: fetches=%d stores=%d", h.Fetches, h.Stores)
	}
}

func TestHierarchyPrefetcherHelpsStreams(t *testing.T) {
	run := func(deg int) int64 {
		cfg := DefaultConfig()
		cfg.PrefetchDegree = deg
		h := NewHierarchy(cfg)
		var tt int64
		for i := 0; i < 2000; i++ {
			d, _ := h.Load(0x400, uint64(i)*64, tt)
			tt = d
		}
		return tt
	}
	without := run(0)
	with := run(2)
	if with >= without {
		t.Errorf("prefetcher did not help stream: with=%d without=%d", with, without)
	}
}

// A confident stride prefetches on every demand miss; the prefetch list
// must reuse the prefetcher's buffer rather than allocate one per miss.
func TestStridedLoadsDoNotAllocate(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	addr, now := uint64(0x100000), int64(0)
	load := func() {
		now, _ = h.Load(0x400, addr, now)
		addr += 64
	}
	for i := 0; i < 8; i++ {
		load() // train the stride to full confidence
	}
	issued := h.pf.Issued
	if allocs := testing.AllocsPerRun(100, load); allocs != 0 {
		t.Errorf("strided loads allocate %v objects each, want 0", allocs)
	}
	if h.pf.Issued == issued {
		t.Fatal("strided loads issued no prefetches: the test exercised nothing")
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Load(0x400, 0x50000, 0)
	h.Reset()
	if h.Loads != 0 || h.L1D.Accesses != 0 || h.DRAM.Reads != 0 {
		t.Error("Reset left statistics behind")
	}
	_, lvl := h.Load(0x400, 0x50000, 0)
	if lvl != LvlMem {
		t.Error("Reset left cache contents behind")
	}
}

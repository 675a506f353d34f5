package ptrace

import (
	"testing"

	"casino/internal/stats"
)

func TestCPIAddTotalCheck(t *testing.T) {
	var c CPI
	c.Add(BucketBase)
	c.Add(BucketBase)
	c.AddN(BucketSrc, 3)
	c.Add(BucketDCache)
	if got := c.Count(BucketBase); got != 2 {
		t.Fatalf("Count(base) = %d, want 2", got)
	}
	if got := c.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	if err := c.Check(6); err != nil {
		t.Fatalf("Check(6): %v", err)
	}
	if err := c.Check(7); err == nil {
		t.Fatal("Check(7) should fail on a 6-cycle stack")
	}
	if got, want := c.Fraction(BucketSrc), 0.5; got != want {
		t.Fatalf("Fraction(src) = %v, want %v", got, want)
	}
}

func TestCPIScaleDelta(t *testing.T) {
	var c CPI
	c.AddN(BucketBase, 10)
	c.AddN(BucketSrc, 4)
	before := c
	// One embedded "real" cycle attributed to src, then scale by n=5: the
	// fast-forward contract says the stack ends up as if 6 src cycles ran.
	c.Add(BucketSrc)
	c.ScaleDelta(&before, 5)
	if got := c.Count(BucketSrc); got != 10 {
		t.Fatalf("Count(src) = %d, want 10", got)
	}
	if got := c.Count(BucketBase); got != 10 {
		t.Fatalf("Count(base) = %d, want 10 (untouched)", got)
	}
	if err := c.Check(20); err != nil {
		t.Fatalf("Check after ScaleDelta: %v", err)
	}
}

func TestCPIPublish(t *testing.T) {
	var c CPI
	c.AddN(BucketBase, 7)
	c.AddN(BucketFU, 2)
	r := stats.NewRegistry()
	c.Publish(r)
	flat := r.Flatten()
	if got := flat["cpi.cycles"]; got != 9 {
		t.Fatalf("cpi.cycles = %v, want 9", got)
	}
	if got := flat["cpi.base"]; got != 7 {
		t.Fatalf("cpi.base = %v, want 7", got)
	}
	if got := flat["cpi.fu"]; got != 2 {
		t.Fatalf("cpi.fu = %v, want 2", got)
	}
	for _, name := range BucketNames() {
		if _, ok := flat["cpi."+name]; !ok {
			t.Fatalf("bucket %q missing from published stack", name)
		}
	}
}

func TestRecorderWindow(t *testing.T) {
	var col Collector
	r := NewRecorder(&col, Window{MinSeq: 10, MaxSeq: 20})
	for seq := uint64(0); seq < 30; seq++ {
		r.Emit(Event{Cycle: int64(seq), Seq: seq, Kind: KindDispatch})
	}
	// Stall and flush events bypass the instruction window.
	r.Emit(Event{Cycle: 99, Seq: 500, Kind: KindStall, Stall: BucketSrc})
	r.Emit(Event{Cycle: 99, Seq: 500, Kind: KindFlush})
	evs := col.Events()
	if len(evs) != 12 {
		t.Fatalf("forwarded %d events, want 12 (10 windowed + stall + flush)", len(evs))
	}
	for _, e := range evs[:10] {
		if e.Seq < 10 || e.Seq >= 20 {
			t.Fatalf("seq %d escaped window [10,20)", e.Seq)
		}
	}
	if r.Emitted() != 12 {
		t.Fatalf("Emitted = %d, want 12", r.Emitted())
	}
}

func TestRecorderSampling(t *testing.T) {
	var col Collector
	r := NewRecorder(&col, Window{SampleEvery: 4})
	for seq := uint64(0); seq < 16; seq++ {
		r.Emit(Event{Seq: seq, Kind: KindCommit})
	}
	evs := col.Events()
	if len(evs) != 4 {
		t.Fatalf("forwarded %d events, want 4", len(evs))
	}
	for _, e := range evs {
		if e.Seq%4 != 0 {
			t.Fatalf("seq %d escaped sampling filter", e.Seq)
		}
	}
}

func TestBuildTimelineSquashReset(t *testing.T) {
	evs := []Event{
		{Cycle: 0, Seq: 5, Kind: KindFetch},
		{Cycle: 1, Seq: 5, Kind: KindDispatch},
		{Cycle: 2, Seq: 5, Kind: KindIssueSpec},
		{Cycle: 6, Seq: 5, Kind: KindComplete},
		{Cycle: 3, Seq: 5, Kind: KindSquash}, // flushed before completing
		{Cycle: 3, Seq: 5, Kind: KindFlush},
		{Cycle: 4, Seq: 5, Kind: KindDispatch},
		{Cycle: 5, Seq: 5, Kind: KindIssue},
		{Cycle: 7, Seq: 5, Kind: KindComplete},
		{Cycle: 8, Seq: 5, Kind: KindCommit},
		{Cycle: 2, Seq: 0, Kind: KindStall, Stall: BucketReplay},
	}
	tl := BuildTimeline(evs)
	if len(tl.Recs) != 1 {
		t.Fatalf("got %d records, want 1", len(tl.Recs))
	}
	r := tl.Recs[0]
	if r.Squashes != 1 || r.Spec || r.Issue != 5 || r.Commit != 8 || r.Fetch != 0 {
		t.Fatalf("unexpected record after squash+reexec: %+v", r)
	}
	if tl.Flushes != 1 || tl.Stalls[BucketReplay] != 1 {
		t.Fatalf("flush/stall aggregation wrong: flushes=%d stalls=%v", tl.Flushes, tl.Stalls)
	}
}

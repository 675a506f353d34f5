package lsu

import "testing"

func TestResolvedOrGone(t *testing.T) {
	q := NewStoreQueue(4)
	if !q.ResolvedOrGone(42) {
		t.Error("absent store should count as gone")
	}
	q.Dispatch(42, 0x100)
	if q.ResolvedOrGone(42) {
		t.Error("unresolved in-flight store reported gone")
	}
	q.Resolve(42, 0x1000, 8, 1, 1)
	if !q.ResolvedOrGone(42) {
		t.Error("resolved store not reported")
	}
}

func TestOldestUnresolvedOlder(t *testing.T) {
	q := NewStoreQueue(4)
	if q.OldestUnresolvedOlder(100) != nil {
		t.Error("empty queue returned an entry")
	}
	q.Dispatch(10, 0)
	q.Dispatch(20, 0)
	q.Dispatch(30, 0)
	q.Resolve(10, 0x100, 8, 1, 1)
	e := q.OldestUnresolvedOlder(25)
	if e == nil || e.Seq != 20 {
		t.Fatalf("got %+v, want seq 20", e)
	}
	// Younger-than bound unresolved stores don't count.
	if q.OldestUnresolvedOlder(15) != nil {
		t.Error("store 20 is younger than bound 15")
	}
}

func TestStoreQueuePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero-capacity queue", func() { NewStoreQueue(0) })
	mustPanic("zero-capacity lq", func() { NewLoadQueue(0) })
	q := NewStoreQueue(2)
	mustPanic("resolve unknown", func() { q.Resolve(9, 0, 4, 0, 0) })
	mustPanic("commit unknown", func() { q.Commit(9) })
	mustPanic("retire empty", func() { q.StartRetire(5) })
	lq := NewLoadQueue(2)
	mustPanic("mark unknown load", func() { lq.MarkIssued(7, 0, 4) })
}

func TestStoreQueueWrapAround(t *testing.T) {
	// Exercise the ring buffer across several wrap-arounds.
	q := NewStoreQueue(3)
	seq := uint64(0)
	for round := 0; round < 5; round++ {
		for q.Len() < q.Cap() {
			if !q.Dispatch(seq, 0x100+seq*4) {
				t.Fatal("dispatch failed with space available")
			}
			q.Resolve(seq, 0x1000+seq*8, 8, int64(seq), int64(seq))
			q.Commit(seq)
			seq++
		}
		for q.Len() > 0 {
			if !q.HeadRetirable(int64(seq) + 100) {
				t.Fatalf("head not retirable: %+v", q.Head())
			}
			q.StartRetire(int64(seq) + 101)
			if _, ok := q.PopRetired(int64(seq) + 101); !ok {
				t.Fatal("pop failed")
			}
		}
	}
	if q.Head() != nil {
		t.Error("drained queue has a head")
	}
}

func TestLoadQueueCapAndSquashPartial(t *testing.T) {
	q := NewLoadQueue(4)
	if q.Cap() != 4 {
		t.Errorf("Cap = %d", q.Cap())
	}
	for i := uint64(1); i <= 4; i++ {
		q.Dispatch(i*10, i)
	}
	q.SquashYoungerThan(25) // drops 30, 40
	if q.Len() != 2 {
		t.Errorf("Len = %d after partial squash", q.Len())
	}
	q.MarkIssued(20, 0x100, 8)
	if _, _, hit := q.SearchViolation(5, 0x100, 8); !hit {
		t.Error("surviving load not searchable")
	}
}

func TestOSCAReset(t *testing.T) {
	o := NewOSCA(8, 4)
	o.Inc(0, 4)
	o.LoadMaySearch(0, 4)
	o.Reset()
	if o.Counter(0) != 0 || o.Lookups != 0 {
		t.Error("Reset incomplete")
	}
}

func TestOSCAGiantAccessCoversAll(t *testing.T) {
	o := NewOSCA(8, 4)
	o.Inc(0, 255) // covers more ranges than counters exist
	for i := 0; i < o.Size(); i++ {
		if o.Counter(i) == 0 {
			t.Fatalf("counter %d not covered by giant access", i)
		}
	}
	o.Dec(0, 255)
	for i := 0; i < o.Size(); i++ {
		if o.Counter(i) != 0 {
			t.Fatalf("counter %d not restored", i)
		}
	}
	// Zero-size accesses are treated as one byte.
	o.Inc(16, 0)
	if !o.LoadMaySearch(16, 1) {
		t.Error("zero-size store not counted")
	}
}

func TestStoreSetsClearingConfigurable(t *testing.T) {
	s := NewStoreSetsWithClear(4)
	s.OnViolation(0x100, 0x200)
	s.StoreDispatched(0x200, 10)
	for i := 0; i < 4; i++ {
		s.LoadDependence(0x100)
	}
	if s.Clears != 1 {
		t.Errorf("Clears = %d, want 1", s.Clears)
	}
	if _, wait := s.LoadDependence(0x100); wait {
		t.Error("cleared predictor still predicts dependence")
	}
	// Never-clearing predictor keeps its state indefinitely.
	n := NewStoreSetsWithClear(0)
	n.OnViolation(0x100, 0x200)
	n.StoreDispatched(0x200, 10)
	for i := 0; i < 100000; i++ {
		n.LoadDependence(0x300)
	}
	if _, wait := n.LoadDependence(0x100); !wait {
		t.Error("never-clearing predictor forgot its set")
	}
	if n.Clears != 0 {
		t.Errorf("Clears = %d, want 0", n.Clears)
	}
}

func TestValidateLoadStopsAtYoungerStores(t *testing.T) {
	q := NewStoreQueue(4)
	q.Dispatch(30, 0) // younger than the load below
	q.Resolve(30, 0x1000, 8, 8, 9)
	if q.ValidateLoad(20, 0x1000, 8, 5) {
		t.Error("younger store flagged as violation source")
	}
}

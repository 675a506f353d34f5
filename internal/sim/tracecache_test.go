package sim

import (
	"reflect"
	"sync"
	"testing"

	"casino/internal/trace"
	"casino/internal/workload"
)

// A run fed by the shared trace cache must be bit-identical to a run over a
// freshly generated private trace, for every model: the cache changes how a
// trace is obtained, never what the simulation computes.
func TestSharedVsFreshTraceDeterminism(t *testing.T) {
	for _, model := range Models() {
		spec := Spec{Model: model, Workload: "gcc", Ops: 4000, Warmup: 1000, Seed: 7}
		cached, err := Run(spec) // resolves through the shared cache
		if err != nil {
			t.Fatalf("%s cached run: %v", model, err)
		}
		p, err := workload.ByName(spec.Workload)
		if err != nil {
			t.Fatal(err)
		}
		fresh := spec
		fresh.Trace = workload.Generate(p, spec.Warmup+spec.Ops, spec.Seed)
		private, err := Run(fresh)
		if err != nil {
			t.Fatalf("%s fresh run: %v", model, err)
		}
		if !reflect.DeepEqual(cached, private) {
			t.Errorf("%s: cached-trace result differs from fresh-trace result:\ncached:  %+v\nprivate: %+v",
				model, cached, private)
		}
	}
}

// Concurrent Gets for one key must generate exactly once and hand every
// caller the same trace pointer (this test also gives `go test -race` a
// real concurrent workout of the cache).
func TestTraceCacheSingleflight(t *testing.T) {
	tc := NewTraceCache(8)
	const workers = 16
	ptrs := make([]*trace.Trace, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := tc.Get("mcf", 3000, 3)
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[i] = tr
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatalf("worker %d got a different trace pointer", i)
		}
	}
	entries, hits, misses := tc.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", misses)
	}
	if hits != workers-1 {
		t.Errorf("hits = %d, want %d", hits, workers-1)
	}
	if entries != 1 {
		t.Errorf("entries = %d, want 1", entries)
	}
}

func TestTraceCacheEviction(t *testing.T) {
	tc := NewTraceCache(2)
	for _, w := range []string{"gcc", "mcf", "milc"} {
		if _, err := tc.Get(w, 1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, misses := tc.Stats()
	if entries != 2 {
		t.Errorf("entries = %d, want 2 (LRU bound)", entries)
	}
	if misses != 3 {
		t.Errorf("misses = %d, want 3", misses)
	}
	// gcc was least recently used, so it must have been evicted: asking for
	// it again is a miss; mcf/milc are still resident.
	if _, err := tc.Get("gcc", 1000, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, misses = tc.Stats(); misses != 4 {
		t.Errorf("misses after re-Get = %d, want 4 (gcc was evicted)", misses)
	}
}

func TestTraceCacheUnknownWorkload(t *testing.T) {
	tc := NewTraceCache(4)
	if _, err := tc.Get("no-such-profile", 1000, 1); err == nil {
		t.Fatal("expected an error for an unknown workload")
	}
	if entries, _, _ := tc.Stats(); entries != 0 {
		t.Errorf("failed lookup pinned a cache slot (entries = %d)", entries)
	}
}

func TestTraceCacheIntegrity(t *testing.T) {
	tc := NewTraceCache(4)
	tr, err := tc.Get("gcc", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := tc.CheckIntegrity(); len(bad) != 0 {
		t.Fatalf("pristine cache reported violations: %v", bad)
	}
	tr.Ops[0].Addr ^= 1 // simulate a core breaking the read-only contract
	if bad := tc.CheckIntegrity(); len(bad) != 1 || bad[0] != "gcc" {
		t.Fatalf("CheckIntegrity = %v, want [gcc]", bad)
	}
	tr.Ops[0].Addr ^= 1
}

package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Memo's singleflight: a request for a key whose computation is in flight
// joins it instead of computing again, and reports a hit. A failed
// computation is not cached.
func TestMemoSingleflight(t *testing.T) {
	m := NewMemo[string, int](8)
	started := make(chan struct{})
	release := make(chan struct{})
	type out struct {
		v   int
		hit bool
	}
	first := make(chan out)
	go func() {
		v, hit, _ := m.Do("k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		first <- out{v, hit}
	}()
	<-started
	second := make(chan out)
	go func() {
		v, hit, _ := m.Do("k", func() (int, error) {
			t.Error("second computation ran despite the in-flight entry")
			return 0, nil
		})
		second <- out{v, hit}
	}()
	close(release)
	if a := <-first; a.hit || a.v != 7 {
		t.Errorf("first: %+v", a)
	}
	if b := <-second; !b.hit || b.v != 7 {
		t.Errorf("joiner: %+v", b)
	}

	boom := errors.New("boom")
	if _, _, err := m.Do("bad", func() (int, error) { return 0, boom }); err != boom {
		t.Errorf("error not returned: %v", err)
	}
	if v, hit, err := m.Do("bad", func() (int, error) { return 3, nil }); hit || v != 3 || err != nil {
		t.Errorf("failed computation was cached: v=%d hit=%v err=%v", v, hit, err)
	}
}

// A compute that panics must not strand the callers joined to it: the
// waiter gets an error, the panic reaches the computing goroutine, and the
// key is free for a later Do to compute again (CI repeats it under -race
// -count=10 with a timeout, so a stranded waiter fails as a hang).
func TestMemoPanicReleasesWaiters(t *testing.T) {
	m := NewMemo[string, int](1)
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		m.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiter := make(chan error)
	go func() {
		_, hit, err := m.Do("k", func() (int, error) {
			t.Error("waiter computed despite the in-flight entry")
			return 0, nil
		})
		if !hit {
			t.Error("waiter did not join the in-flight entry")
		}
		waiter <- err
	}()
	for { // wait until the waiter has joined the in-flight entry
		if _, hits, _ := m.Stats(); hits == 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	if p := <-panicked; p != "boom" {
		t.Errorf("computing goroutine recovered %v, want the re-raised panic", p)
	}
	if err := <-waiter; err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("waiter error = %v, want one naming the panic", err)
	}
	if entries, _, _ := m.Stats(); entries != 0 {
		t.Errorf("panicked entry still resident (entries = %d)", entries)
	}
	if v, hit, err := m.Do("k", func() (int, error) { return 5, nil }); hit || v != 5 || err != nil {
		t.Errorf("later Do: v=%d hit=%v err=%v, want a fresh computation", v, hit, err)
	}
	// The memo holds one entry: a new key must evict the completed one.
	if v, _, err := m.Do("other", func() (int, error) { return 6, nil }); v != 6 || err != nil {
		t.Errorf("Do after the panic: v=%d err=%v", v, err)
	}
	if entries, _, _ := m.Stats(); entries != 1 {
		t.Errorf("entries = %d, want 1 (LRU bound)", entries)
	}
}

// Peek answers only a completed computation, and then counts a hit and
// refreshes the key's LRU position exactly as Do does, so a memo touched
// by Peek evicts what a memo touched by Do evicts. An absent, failed or
// in-flight key returns false at once and counts nothing.
func TestMemoPeek(t *testing.T) {
	val := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	for _, touch := range []string{"Peek", "Do"} {
		m := NewMemo[string, int](2)
		m.Do("a", val(1))
		m.Do("b", val(2))
		if touch == "Peek" {
			if v, ok := m.Peek("a"); !ok || v != 1 {
				t.Fatalf("Peek of a completed key = %d, %v; want 1, true", v, ok)
			}
		} else if v, hit, _ := m.Do("a", val(-1)); !hit || v != 1 {
			t.Fatalf("Do of a completed key = %d, hit %v; want 1, hit", v, hit)
		}
		m.Do("c", val(3)) // evicts the least recently used: b
		if _, ok := m.Peek("b"); ok {
			t.Errorf("touched by %s: b survived the eviction of the LRU entry", touch)
		}
		if v, ok := m.Peek("a"); !ok || v != 1 {
			t.Errorf("touched by %s: a was evicted (Peek = %d, %v)", touch, v, ok)
		}
		if entries, hits, misses := m.Stats(); entries != 2 || hits != 2 || misses != 3 {
			t.Errorf("touched by %s: entries, hits, misses = %d, %d, %d; want 2, 2, 3", touch, entries, hits, misses)
		}
	}

	m := NewMemo[string, int](4)
	if _, _, err := m.Do("bad", func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("failed computation returned no error")
	}
	for _, key := range []string{"absent", "bad"} {
		if v, ok := m.Peek(key); ok {
			t.Errorf("Peek(%q) = %d, true; want false", key, v)
		}
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Do("k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	peeked := make(chan bool)
	go func() {
		_, ok := m.Peek("k")
		peeked <- ok
	}()
	select {
	case ok := <-peeked:
		if ok {
			t.Error("Peek of an in-flight key returned a value")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Peek blocked on an in-flight key")
	}
	close(release)
	<-done
	if _, hits, misses := m.Stats(); hits != 0 || misses != 2 {
		t.Errorf("hits, misses = %d, %d; want 0, 2 (Peek of an absent, failed or in-flight key counts nothing)", hits, misses)
	}
	if v, ok := m.Peek("k"); !ok || v != 7 {
		t.Errorf("Peek after completion = %d, %v; want 7, true", v, ok)
	}
}

package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
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

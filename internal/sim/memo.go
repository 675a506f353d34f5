package sim

import (
	"fmt"
	"sync"
)

// Memo is a concurrency-safe, singleflight, LRU-bounded memo. The first Do
// for a key computes the value, every concurrent Do for the same key
// blocks on that single computation, and later Dos hit the ready value.
// Only successful computations stay resident: a failed one is dropped, so
// a transient error does not pin a poisoned slot. The process-wide trace
// cache and the sweep service's result cache are both Memos.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	tick    uint64
	max     int

	hits, misses uint64
}

// memoEntry is one slot. ready is closed once v/err are set; callers that
// find an in-flight entry block on it instead of computing again.
type memoEntry[V any] struct {
	ready   chan struct{}
	v       V
	err     error
	lastUse uint64 // tick of the most recent request (LRU)
}

// NewMemo returns a memo holding at most max completed values.
func NewMemo[K comparable, V any](max int) *Memo[K, V] {
	return &Memo[K, V]{entries: map[K]*memoEntry[V]{}, max: max}
}

// Do returns the value for key, running compute at most once per key no
// matter how many goroutines ask concurrently. hit reports whether the
// entry was already resident (completed, or in flight for another caller).
//
// A compute that panics fails like one that errs: its entry is dropped,
// every caller waiting on it gets an error naming the panic value, and the
// panic is re-raised in the goroutine that ran compute.
func (m *Memo[K, V]) Do(key K, compute func() (V, error)) (v V, hit bool, err error) {
	m.mu.Lock()
	m.tick++
	if e, ok := m.entries[key]; ok {
		e.lastUse = m.tick
		m.hits++
		m.mu.Unlock()
		<-e.ready
		return e.v, true, e.err
	}
	e := &memoEntry[V]{ready: make(chan struct{}), lastUse: m.tick}
	m.evictLocked()
	m.entries[key] = e
	m.misses++
	m.mu.Unlock()

	defer func() {
		p := recover()
		if p != nil {
			e.err = fmt.Errorf("sim: memo computation panicked: %v", p)
		}
		if e.err != nil {
			m.mu.Lock()
			if m.entries[key] == e { // a Reset may have let another caller take the key
				delete(m.entries, key)
			}
			m.mu.Unlock()
		}
		close(e.ready)
		if p != nil {
			panic(p)
		}
	}()
	e.v, e.err = compute()
	return e.v, false, e.err
}

// Peek returns key's value without waiting for it: ok is true only when a
// computation of key has completed successfully. Such a Peek counts a hit
// and refreshes the key's LRU position exactly as Do does. An absent,
// in-flight or failed key returns false and counts nothing (a failed
// computation leaves the map before it completes), so a caller can fall
// through to Do, which joins an in-flight computation.
func (m *Memo[K, V]) Peek(key K) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, found := m.entries[key]
	if !found || !e.completed() {
		return v, false
	}
	m.tick++
	e.lastUse = m.tick
	m.hits++
	return e.v, true
}

// evictLocked drops the least-recently-used *completed* entries until the
// memo has room for one more. In-flight computations are never evicted:
// their waiters hold the entry pointer.
func (m *Memo[K, V]) evictLocked() {
	for len(m.entries) >= m.max {
		var victim K
		var oldest uint64
		found := false
		for k, e := range m.entries {
			if !e.completed() {
				continue
			}
			if !found || e.lastUse < oldest {
				victim, oldest, found = k, e.lastUse, true
			}
		}
		if !found {
			return // everything in flight; let the map grow transiently
		}
		delete(m.entries, victim)
	}
}

func (e *memoEntry[V]) completed() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Stats reports the resident entries (completed or in flight) and the
// hit/miss counts since creation or the last Reset.
func (m *Memo[K, V]) Stats() (entries int, hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.hits, m.misses
}

// Reset empties the memo and zeroes its counters. Callers must not race a
// Reset against in-flight Dos whose results they still need (the entries
// are forgotten, not invalidated; waiters still get their value).
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = map[K]*memoEntry[V]{}
	m.hits, m.misses, m.tick = 0, 0, 0
}

// completed returns a snapshot of the resident completed values by key
// (a failed computation leaves the map before it completes).
func (m *Memo[K, V]) completed() map[K]V {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[K]V, len(m.entries))
	for k, e := range m.entries {
		if e.completed() {
			out[k] = e.v
		}
	}
	return out
}

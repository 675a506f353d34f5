package lsu

// OSCA is the Outstanding Store Counter Array of §III-C4: a small,
// direct-mapped, tagless array of saturating counters indexed by the low
// address bits at 4-byte granularity. Counters track issued-but-not-retired
// stores; a load whose counters are all zero provably cannot alias any
// outstanding resolved store and skips its SQ/SB search. Lookups and Skips
// are published as oscaLookups and oscaSkips; the cores bill counter reads
// and writes to the energy accountant.
type OSCA struct {
	counters []uint8
	max      uint8

	Lookups uint64 // load lookups (LoadMaySearch calls)
	Skips   uint64 // searches filtered out (all counters zero)
}

// NewOSCA creates an array of n counters saturating at max (the paper uses
// n=64 and max = SQ+SB entries so saturation stalls cannot deadlock).
func NewOSCA(n int, max uint8) *OSCA {
	if n < 1 || n&(n-1) != 0 {
		panic("lsu: OSCA size must be a power of two")
	}
	if max == 0 {
		panic("lsu: OSCA max must be positive")
	}
	return &OSCA{counters: make([]uint8, n), max: max}
}

// Size returns the number of counters.
func (o *OSCA) Size() int { return len(o.counters) }

// indices returns the counter indices covered by [addr, addr+size), at
// 4-byte range granularity (unaligned/wide accesses touch several).
func (o *OSCA) indices(addr uint64, size uint8) (first, last int) {
	mask := uint64(len(o.counters) - 1)
	lo := addr >> 2
	hi := (addr + uint64(size) - 1) >> 2
	if hi-lo >= uint64(len(o.counters)) {
		return 0, len(o.counters) - 1 // giant access covers everything
	}
	return int(lo & mask), int(hi & mask)
}

func (o *OSCA) each(addr uint64, size uint8, f func(i int)) {
	if size == 0 {
		size = 1
	}
	first, last := o.indices(addr, size)
	i := first
	for {
		f(i)
		if i == last {
			return
		}
		i = (i + 1) % len(o.counters)
	}
}

// CanInc reports whether a store covering [addr,addr+size) can be counted
// without saturating (a saturated counter must stall the store's issue).
// It has no side effects.
func (o *OSCA) CanInc(addr uint64, size uint8) bool {
	ok := true
	o.each(addr, size, func(i int) {
		if o.counters[i] >= o.max {
			ok = false
		}
	})
	return ok
}

// Inc counts an issued store over its byte range.
func (o *OSCA) Inc(addr uint64, size uint8) {
	o.each(addr, size, func(i int) {
		if o.counters[i] < o.max {
			o.counters[i]++
		}
	})
}

// Dec removes a retired (or squashed) store.
func (o *OSCA) Dec(addr uint64, size uint8) {
	o.each(addr, size, func(i int) {
		if o.counters[i] > 0 {
			o.counters[i]--
		}
	})
}

// LoadMaySearch reports whether a load of [addr,addr+size) must search the
// SQ/SB (some covering counter non-zero). A false return is the paper's
// energy win: the search is provably redundant.
func (o *OSCA) LoadMaySearch(addr uint64, size uint8) bool {
	o.Lookups++
	any := false
	o.each(addr, size, func(i int) {
		if o.counters[i] != 0 {
			any = true
		}
	})
	if !any {
		o.Skips++
	}
	return any
}

// Counter returns counter i (testing/introspection).
func (o *OSCA) Counter(i int) uint8 { return o.counters[i] }

// Reset zeroes counters and statistics.
func (o *OSCA) Reset() {
	for i := range o.counters {
		o.counters[i] = 0
	}
	o.Lookups, o.Skips = 0, 0
}

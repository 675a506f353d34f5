package mem

// StridePrefetcher is the L2 stride-based prefetcher of Table I: a PC-
// indexed table learning per-instruction strides; once confident it
// prefetches `degree` lines ahead into the L2.
type StridePrefetcher struct {
	entries []pfEntry
	degree  int
	out     []uint64 // Train's result, reused: callers consume it before the next Train

	Trained uint64
	Issued  uint64
}

type pfEntry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int8
}

// NewStridePrefetcher creates a prefetcher with 256 table entries and the
// given prefetch degree (lines ahead).
func NewStridePrefetcher(degree int) *StridePrefetcher {
	if degree < 1 {
		degree = 1
	}
	return &StridePrefetcher{entries: make([]pfEntry, 256), degree: degree, out: make([]uint64, 0, degree)}
}

// Train observes a demand access (pc, addr) and returns the addresses that
// should be prefetched (possibly none). The returned slice is only valid
// until the next call to Train.
func (p *StridePrefetcher) Train(pc, addr uint64) []uint64 {
	p.Trained++
	e := &p.entries[(pc>>2)%uint64(len(p.entries))]
	if e.pc != pc {
		*e = pfEntry{pc: pc, lastAddr: addr}
		return nil
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
	}
	e.lastAddr = addr
	if e.conf < 2 {
		return nil
	}
	out := p.out[:0]
	for i := 1; i <= p.degree; i++ {
		a := int64(addr) + e.stride*int64(i)
		if a > 0 {
			out = append(out, uint64(a))
		}
	}
	p.Issued += uint64(len(out))
	return out
}

// Reset clears the table and statistics.
func (p *StridePrefetcher) Reset() {
	for i := range p.entries {
		p.entries[i] = pfEntry{}
	}
	p.Trained, p.Issued = 0, 0
}

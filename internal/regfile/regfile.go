// Package regfile implements register renaming state shared by the OoO and
// CASINO cores: the register alias table (RAT), free lists, the physical
// register file scoreboard (readiness plus CASINO's ProducerCount field),
// and the recovery log used for fast mis-speculation repair.
package regfile

import (
	"fmt"

	"casino/internal/isa"
)

// PReg is a physical register identifier. Integer and FP physical
// registers live in disjoint index ranges of one scoreboard: integer pregs
// are [0, nInt), FP pregs are [nInt, nInt+nFP).
type PReg uint16

// PRegNone marks an absent physical register.
const PRegNone PReg = 0xFFFF

// File is the renaming state: RAT + free lists + PRF scoreboard. Its reads
// have no side effects: the cores bill RAT and scoreboard accesses to the
// energy accountant at their own call sites, so a check that only asks
// (the CPI classifier, NextWake) bills nothing.
type File struct {
	nInt, nFP int
	rat       [isa.NumArchRegs]PReg
	freeInt   []PReg
	freeFP    []PReg
	readyAt   []int64
	producers []uint8 // CASINO ProducerCount per preg
	maxProd   uint8
	wu        *wakeup // producer-push wakeup state (nil = disabled)

	Allocs uint64 // free-list pops (Fig. 7a's allocation counts)
}

// New creates a file with nInt integer and nFP floating-point physical
// registers. Architectural registers are initially identity-mapped; the
// remainder populate the free lists. maxProducers bounds ProducerCount
// (the paper uses a 2-bit field: up to 3 pending producers).
func New(nInt, nFP int, maxProducers uint8) *File {
	if nInt < isa.NumIntRegs || nFP < isa.NumFPRegs {
		panic(fmt.Sprintf("regfile: need at least %d INT and %d FP physical registers, got %d/%d",
			isa.NumIntRegs, isa.NumFPRegs, nInt, nFP))
	}
	f := &File{
		nInt: nInt, nFP: nFP,
		readyAt:   make([]int64, nInt+nFP),
		producers: make([]uint8, nInt+nFP),
		maxProd:   maxProducers,
	}
	for i := 0; i < isa.NumIntRegs; i++ {
		f.rat[isa.IntReg(i)] = PReg(i)
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		f.rat[isa.FPReg(i)] = PReg(nInt + i)
	}
	for p := isa.NumIntRegs; p < nInt; p++ {
		f.freeInt = append(f.freeInt, PReg(p))
	}
	for p := nInt + isa.NumFPRegs; p < nInt+nFP; p++ {
		f.freeFP = append(f.freeFP, PReg(p))
	}
	return f
}

// NumPhys returns the total number of physical registers.
func (f *File) NumPhys() int { return f.nInt + f.nFP }

// IsFP reports whether p is a floating-point physical register.
func (f *File) IsFP(p PReg) bool { return int(p) >= f.nInt }

// Lookup reads the RAT mapping for architectural register a.
func (f *File) Lookup(a isa.Reg) PReg {
	if !a.Valid() {
		return PRegNone
	}
	return f.rat[a]
}

// FreeCount returns the number of free registers in the pool for fp.
func (f *File) FreeCount(fp bool) int {
	if fp {
		return len(f.freeFP)
	}
	return len(f.freeInt)
}

// CanAllocate reports whether a free register exists for a's pool.
func (f *File) CanAllocate(a isa.Reg) bool {
	return f.FreeCount(a.IsFP()) > 0
}

// Allocate pops a free physical register for architectural register a,
// updates the RAT, and returns the new preg together with the previous
// mapping (for the recovery log and commit-time release). It returns
// ok=false (and leaves state untouched) when the pool is empty.
func (f *File) Allocate(a isa.Reg) (newP, oldP PReg, ok bool) {
	if !a.Valid() {
		panic("regfile: Allocate of invalid register")
	}
	pool := &f.freeInt
	if a.IsFP() {
		pool = &f.freeFP
	}
	if len(*pool) == 0 {
		return PRegNone, PRegNone, false
	}
	newP = (*pool)[len(*pool)-1]
	*pool = (*pool)[:len(*pool)-1]
	oldP = f.rat[a]
	f.rat[a] = newP
	f.Allocs++
	f.readyAt[newP] = notReady
	f.producers[newP] = 0
	if f.wu != nil {
		f.wu.dropWaiters(newP)
	}
	return newP, oldP, true
}

// SetMapping restores the RAT entry for a to p (recovery).
func (f *File) SetMapping(a isa.Reg, p PReg) {
	f.rat[a] = p
}

// Release returns p to its free list.
func (f *File) Release(p PReg) {
	if p == PRegNone {
		return
	}
	if f.IsFP(p) {
		f.freeFP = append(f.freeFP, p)
	} else {
		f.freeInt = append(f.freeInt, p)
	}
}

// notReady is the ReadyAt sentinel for a physical register whose producer
// has not issued yet.
const notReady = int64(1) << 62

// ReadyAt returns the cycle at which p's value is available (a very large
// sentinel while its producer has not issued).
func (f *File) ReadyAt(p PReg) int64 {
	if p == PRegNone {
		return 0
	}
	return f.readyAt[p]
}

// IsReady reports whether p's value is available at cycle now.
func (f *File) IsReady(p PReg, now int64) bool { return f.ReadyAt(p) <= now }

// SetReadyAt records that p's value becomes available at cycle c. When
// push-wakeup is enabled, the not-ready→known transition fires p's
// registered waiters.
func (f *File) SetReadyAt(p PReg, c int64) {
	if p == PRegNone {
		return
	}
	old := f.readyAt[p]
	f.readyAt[p] = c
	if f.wu != nil && old == notReady && c != notReady {
		f.wu.fireWaiters(p)
	}
}

// MarkNotReady marks p as pending (producer in flight).
func (f *File) MarkNotReady(p PReg) { f.SetReadyAt(p, notReady) }

// --- ProducerCount (CASINO conditional renaming, §III-C3) ---

// Producers returns the pending-producer count of p.
func (f *File) Producers(p PReg) uint8 { return f.producers[p] }

// CanAddProducer reports whether another in-IQ instruction may share p
// (2-bit field: at most maxProducers pending writers).
func (f *File) CanAddProducer(p PReg) bool { return f.producers[p] < f.maxProd }

// AddProducer counts an instruction steered to the IQ that will write p.
func (f *File) AddProducer(p PReg) {
	if f.producers[p] >= f.maxProd {
		panic("regfile: ProducerCount overflow — call CanAddProducer first")
	}
	f.producers[p]++
}

// RemoveProducer counts the issue of one of p's pending writers.
func (f *File) RemoveProducer(p PReg) {
	if f.producers[p] == 0 {
		panic("regfile: ProducerCount underflow")
	}
	f.producers[p]--
}

// InUse returns the number of allocated (non-free) registers in the pool.
func (f *File) InUse(fp bool) int {
	if fp {
		return f.nFP - len(f.freeFP)
	}
	return f.nInt - len(f.freeInt)
}

// RecoveryEntry records one speculative rename for undo.
type RecoveryEntry struct {
	Seq  uint64
	Arch isa.Reg
	Old  PReg
	New  PReg
}

// RecoveryLog is the small mapping log of §III-C5. Because CASINO renames
// conditionally, it holds only the speculatively issued instructions'
// mappings, so recovery completes in a few cycles. Live entries occupy
// entries[head:]; Commit advances head instead of shifting the slice (it
// runs once per committed instruction), compacting only when the dead
// prefix dominates.
type RecoveryLog struct {
	entries []RecoveryEntry
	head    int
}

// Push records a speculative rename.
func (l *RecoveryLog) Push(e RecoveryEntry) {
	l.entries = append(l.entries, e)
}

// Commit discards entries older than seq (their instructions committed).
func (l *RecoveryLog) Commit(seq uint64) {
	for l.head < len(l.entries) && l.entries[l.head].Seq <= seq {
		l.head++
	}
	switch {
	case l.head == len(l.entries):
		l.entries = l.entries[:0]
		l.head = 0
	case l.head > 64 && l.head*2 >= len(l.entries):
		n := copy(l.entries, l.entries[l.head:])
		l.entries = l.entries[:n]
		l.head = 0
	}
}

// Unwind undoes renames with Seq >= seq, youngest first, restoring the RAT
// and freeing the speculatively allocated registers. It returns the number
// of entries undone (the recovery latency in rename-ports worth of work).
func (l *RecoveryLog) Unwind(f *File, seq uint64) int {
	n := 0
	for len(l.entries) > l.head {
		e := l.entries[len(l.entries)-1]
		if e.Seq < seq {
			break
		}
		f.SetMapping(e.Arch, e.Old)
		f.Release(e.New)
		l.entries = l.entries[:len(l.entries)-1]
		n++
	}
	return n
}

// Len returns the number of live log entries.
func (l *RecoveryLog) Len() int { return len(l.entries) - l.head }

// Package slice implements the paper's slice-out-of-order comparison
// points (§VI-A2): the Load Slice Core (LSC) [Carlson et al., ISCA'15] and
// Freeway [Kumar et al., HPCA'19].
//
// Both extend a stall-on-use in-order core with parallel in-order queues.
// LSC learns backward address-generating slices with IBDA (an instruction
// slice table trained through a register dependence table) and issues them
// from a bypass queue (B-IQ) ahead of the main queue (A-IQ), overlapping
// cache misses. Freeway adds a yielding queue (Y-IQ) for slices dependent
// on older slices' loads, so the B-IQ never stalls on inter-slice
// dependences. Memory ordering is conservative (loads wait for older store
// addresses), so neither core ever violates — matching the papers.
package slice

import (
	"fmt"

	"casino/internal/bpred"
	"casino/internal/energy"
	"casino/internal/isa"
	"casino/internal/lsu"
	"casino/internal/mem"
	"casino/internal/pipeline"
	"casino/internal/ptrace"
	"casino/internal/stats"
	"casino/internal/trace"
)

// Kind selects the LSC or Freeway variant.
type Kind uint8

// Variants.
const (
	LSC Kind = iota
	Freeway
)

func (k Kind) String() string {
	if k == LSC {
		return "LSC"
	}
	return "Freeway"
}

// Config holds slice-core parameters. The paper evaluates both with
// 32-entry IQs and unlimited other resources.
type Config struct {
	Kind       Kind
	Width      int
	AQSize     int // main in-order queue
	BQSize     int // bypass (slice) queue
	YQSize     int // yielding queue (Freeway only)
	WindowSize int // in-flight instruction window ("unlimited" = large)
	SBSize     int
	ISTSize    int // instruction slice table entries (IBDA)
	FrontDepth int
}

// DefaultConfig returns the §VI-A2 configuration for the given kind.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind: kind, Width: 2, AQSize: 32, BQSize: 32, YQSize: 32,
		WindowSize: 128, SBSize: 16, ISTSize: 2048, FrontDepth: 5,
	}
}

// Validate checks the limits the core is built on: a front end at least
// one op wide and one stage deep, and at least one entry in the A-IQ, the
// B-IQ, the window, the store buffer and the IST (an empty queue never
// accepts an op, so the run would stall until the cycle cap). The Y-IQ may
// be empty: Freeway's yielded ops then wait to enter the B-IQ. No
// structure may exceed pipeline.MaxEntries.
func (c Config) Validate() error {
	if c.Width < 1 || c.FrontDepth < 1 {
		return fmt.Errorf("slice: Width and FrontDepth must be positive, got %d and %d", c.Width, c.FrontDepth)
	}
	if c.AQSize < 1 || c.BQSize < 1 || c.WindowSize < 1 || c.SBSize < 1 || c.ISTSize < 1 {
		return fmt.Errorf("slice: AQSize, BQSize, WindowSize, SBSize and ISTSize must be positive, got %d, %d, %d, %d and %d",
			c.AQSize, c.BQSize, c.WindowSize, c.SBSize, c.ISTSize)
	}
	if c.YQSize < 0 {
		return fmt.Errorf("slice: YQSize %d is negative", c.YQSize)
	}
	if max(c.AQSize, c.BQSize, c.YQSize, c.WindowSize, c.SBSize, c.ISTSize) > pipeline.MaxEntries {
		return fmt.Errorf("slice: AQSize, BQSize, YQSize, WindowSize, SBSize and ISTSize must be at most %d, got %d, %d, %d, %d, %d and %d",
			pipeline.MaxEntries, c.AQSize, c.BQSize, c.YQSize, c.WindowSize, c.SBSize, c.ISTSize)
	}
	return nil
}

// entry is an in-flight instruction. Entries are pooled on a per-core
// freelist and recycled at commit, so the producer references prod1/prod2/
// waw are weak: they must be read through liveEnt with the captured
// sequence number, never dereferenced raw. A recycled producer had
// committed (issued, done <= commit cycle), so a stale reference reads as
// "complete" either way — liveEnt just makes that explicit and safe
// against reuse.
type entry struct {
	op       *isa.MicroOp
	issued   bool
	done     int64
	prod1    *entry // exact producer tracking (scoreboard stand-in)
	prod2    *entry
	waw      *entry // older writer of the same register, must issue first
	prodSeq1 uint64
	prodSeq2 uint64
	wawSeq   uint64
}

// liveEnt validates a weak producer reference: it returns p only if p still
// holds the op whose sequence number was captured alongside the pointer.
// A mismatch means the producer committed and its entry was recycled for a
// younger op — i.e. the producer is architecturally complete.
func liveEnt(p *entry, seq uint64) *entry {
	if p == nil || p.op.Seq != seq {
		return nil
	}
	return p
}

// Core is a slice-out-of-order core (LSC or Freeway).
type Core struct {
	pipeline.Shell

	cfg Config
	sb  *lsu.StoreQueue

	aq, bq, yq entRing
	window     entRing // program-ordered in-flight window (commit from head)
	stores     entRing // program-ordered in-flight (uncommitted) stores
	free       []*entry

	ist        map[uint64]bool         // instruction slice table: PCs in AG slices
	istOrder   []uint64                // FIFO eviction for the bounded IST
	rdt        [isa.NumArchRegs]uint64 // register dependence table: last writer PC
	lastWriter [isa.NumArchRegs]*entry

	hAQ, hBQ, hYQ, hIST, hRDT, hSB, hSCB int

	// Statistics.
	SliceOps   uint64 // ops dispatched to the B-IQ (or Y-IQ)
	YieldedOps uint64 // ops dispatched to the Y-IQ (Freeway)
	Forwards   uint64

	// Per-structure occupancy histograms, sampled once per cycle.
	OccAQ     *stats.Hist
	OccBQ     *stats.Hist
	OccYQ     *stats.Hist // nil unless Freeway
	OccWindow *stats.Hist
	OccSB     *stats.Hist
}

// New builds a slice core over the trace.
func New(cfg Config, tr *trace.Trace, hier *mem.Hierarchy, acct *energy.Accountant) *Core {
	return NewAt(cfg, tr, 0, nil, hier, acct)
}

// NewAt builds a core whose frontend starts at trace position start with an
// injected (possibly pre-trained) branch predictor; pred == nil allocates a
// fresh one. The sampled-simulation driver uses it to open detailed windows
// mid-trace against warmed shared state.
func NewAt(cfg Config, tr *trace.Trace, start int, pred *bpred.Predictor, hier *mem.Hierarchy, acct *energy.Accountant) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg: cfg,
		sb:  lsu.NewStoreQueue(cfg.SBSize),
		ist: make(map[uint64]bool, cfg.ISTSize),
	}
	c.aq = newEntRing(cfg.AQSize)
	c.bq = newEntRing(cfg.BQSize)
	c.yq = newEntRing(cfg.YQSize)
	c.window = newEntRing(cfg.WindowSize)
	c.stores = newEntRing(cfg.WindowSize)
	c.OccAQ = stats.NewHist(cfg.AQSize + 1)
	c.OccBQ = stats.NewHist(cfg.BQSize + 1)
	if cfg.Kind == Freeway {
		c.OccYQ = stats.NewHist(cfg.YQSize + 1)
	}
	c.OccWindow = stats.NewHist(cfg.WindowSize + 1)
	c.OccSB = stats.NewHist(cfg.SBSize + 1)
	c.Init(c, cfg.Width, cfg.FrontDepth, 2*(cfg.WindowSize+cfg.SBSize)+16, tr, start, pred, hier, acct)
	c.sb.SetWakeQueue(c.WQ)
	c.ReplayHists(c.OccAQ, c.OccBQ, c.OccYQ, c.OccWindow, c.OccSB)
	c.hAQ = acct.Register(energy.Structure{Name: "A-IQ", Entries: cfg.AQSize, Bits: 64, Ports: 2 * cfg.Width})
	c.hBQ = acct.Register(energy.Structure{Name: "B-IQ", Entries: cfg.BQSize, Bits: 64, Ports: 2 * cfg.Width})
	if cfg.Kind == Freeway {
		c.hYQ = acct.Register(energy.Structure{Name: "Y-IQ", Entries: cfg.YQSize, Bits: 64, Ports: 2 * cfg.Width})
	} else {
		c.hYQ = -1
	}
	c.hIST = acct.Register(energy.Structure{Name: "IST", Entries: cfg.ISTSize, Bits: 2, Ports: 2 * cfg.Width})
	c.hRDT = acct.Register(energy.Structure{Name: "RDT", Entries: isa.NumArchRegs, Bits: 32, Ports: 2 * cfg.Width})
	c.hSB = acct.Register(energy.Structure{Name: "SB", Entries: cfg.SBSize, Bits: 112, Ports: 2, CAM: true, TagBits: 40})
	c.hSCB = acct.Register(energy.Structure{Name: "SCB", Entries: isa.NumArchRegs, Bits: 12, Ports: 3 * cfg.Width})
	return c
}

// Done reports pipeline drain.
func (c *Core) Done() bool {
	return c.FE.Done() && c.window.len() == 0 && c.sb.Len() == 0
}

// alloc takes an entry from the freelist (or the heap) and resets it.
func (c *Core) alloc(op *isa.MicroOp) *entry {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		*e = entry{op: op}
		return e
	}
	return &entry{op: op}
}

// recycle returns a committed entry to the freelist. The op pointer is
// intentionally kept until reuse so stale weak references can still
// compare sequence numbers (see liveEnt).
func (c *Core) recycle(e *entry) { c.free = append(c.free, e) }

// Cycle advances one clock.
func (c *Core) Cycle() {
	now := c.Clock
	committed0 := c.Commits
	c.WQ.Drain(now)
	c.OccAQ.Add(c.aq.len())
	c.OccBQ.Add(c.bq.len())
	if c.OccYQ != nil {
		c.OccYQ.Add(c.yq.len())
	}
	c.OccWindow.Add(c.window.len())
	c.OccSB.Add(c.sb.Len())
	c.retireStores(now)
	c.commit(now)
	c.issue(now)
	c.dispatch()
	c.FE.Cycle(now)
	c.EndCycle(c.classifyCycle(now, committed0))
}

func (c *Core) retireStores(now int64) {
	if c.sb.HeadRetirable(now) {
		e := c.sb.Head()
		done := c.Hier.Store(e.PC, e.Addr, now)
		c.Acct.L1Access++
		c.sb.StartRetire(done)
	}
	c.sb.PopRetired(now)
}

// commit retires completed instructions in program order and recycles
// their entries onto the freelist.
func (c *Core) commit(now int64) {
	for k := 0; k < c.cfg.Width && c.window.len() > 0; k++ {
		e := c.window.at(0)
		if !e.issued || e.done > now {
			return
		}
		op := e.op
		if op.Class == isa.Store {
			if c.sb.Full() {
				return
			}
			c.sb.Dispatch(op.Seq, op.PC)
			c.sb.Resolve(op.Seq, op.Addr, op.Size, now, e.done)
			c.sb.Commit(op.Seq)
			c.Acct.Inc(c.hSB, energy.Write, 1)
			c.stores.popFront() // commit is in order, so e is the oldest store
		}
		c.Emit(now, op.Seq, ptrace.KindCommit)
		c.window.popFront()
		c.Commits++
		// A committed producer reads as complete either way; dropping the
		// lastWriter reference here keeps the table pointing only at
		// in-flight entries so the freelist can reuse this one.
		if op.HasDst() && c.lastWriter[op.Dst] == e {
			c.lastWriter[op.Dst] = nil
		}
		c.recycle(e)
	}
}

// issue serves the queues head-in-order: B-IQ first (slices are critical),
// then Y-IQ, then A-IQ.
func (c *Core) issue(now int64) {
	slots := c.cfg.Width
	c.issueQueue(&c.bq, c.hBQ, now, &slots)
	if c.cfg.Kind == Freeway {
		c.issueQueue(&c.yq, c.hYQ, now, &slots)
	}
	c.issueQueue(&c.aq, c.hAQ, now, &slots)
}

func (c *Core) issueQueue(q *entRing, handle int, now int64, slots *int) {
	for *slots > 0 && q.len() > 0 {
		e := q.at(0)
		c.Acct.Inc(c.hSCB, energy.Read, 1)
		if !c.ready(e, now) {
			return
		}
		if !c.FUs.Issue(e.op.Class, now) {
			return
		}
		q.popFront()
		c.Acct.Inc(handle, energy.Read, 1)
		c.execute(e, now)
		if c.PT != nil {
			k := ptrace.KindIssueSpec // B-IQ/Y-IQ run ahead of the A-IQ
			if q == &c.aq {
				k = ptrace.KindIssue
			}
			c.Emit(now, e.op.Seq, k)
			c.Emit(e.done, e.op.Seq, ptrace.KindComplete)
		}
		*slots--
	}
}

// ready is the issue check of a queue head: its sources ready and no
// memory-ordering wait. It has no side effects; issueQueue bills the
// scoreboard read.
func (c *Core) ready(e *entry, now int64) bool {
	return srcsReady(e, now) && !c.waitsOnStore(e)
}

// waitsOnStore reports whether e is a load with an older store whose
// address is unresolved: slice cores never speculate on memory order.
func (c *Core) waitsOnStore(e *entry) bool {
	return e.op.Class == isa.Load && c.anyOlderUnresolvedStore(e)
}

// srcsReady reports whether e's source producers and its older writer of
// the same register (which must issue first) have completed by cycle now.
func srcsReady(e *entry, now int64) bool {
	return completed(e.prod1, e.prodSeq1, now) && completed(e.prod2, e.prodSeq2, now) &&
		completed(e.waw, e.wawSeq, now)
}

// completed reports whether a weak producer reference no longer blocks
// issue at cycle now: the producer committed, or it issued and completed.
func completed(p *entry, seq uint64, now int64) bool {
	q := liveEnt(p, seq)
	return q == nil || q.issued && q.done <= now
}

func (c *Core) anyOlderUnresolvedStore(e *entry) bool {
	// The stores ring holds exactly the uncommitted stores in program
	// order, so this scan touches only stores instead of the whole window.
	for i := 0; i < c.stores.len(); i++ {
		w := c.stores.at(i)
		if w.op.Seq >= e.op.Seq {
			return false
		}
		if !w.issued || w.done > c.Clock {
			return true
		}
	}
	return false
}

func (c *Core) execute(e *entry, now int64) {
	op := e.op
	e.issued = true
	c.CountFU(op.Class)
	switch op.Class {
	case isa.Load:
		agu := now + int64(op.Class.ExecLatency())
		c.Acct.Inc(c.hSB, energy.Search, 1)
		if c.forwardFromStores(op) {
			c.Forwards++
			e.done = agu + int64(c.Hier.Config().L1Latency)
		} else {
			done, _ := c.Hier.Load(op.PC, op.Addr, agu)
			c.Acct.L1Access++
			e.done = done
		}
	case isa.Branch:
		e.done = now + int64(op.Class.ExecLatency())
		c.FE.BranchResolved(op.Seq, e.done)
	default:
		e.done = now + int64(op.Class.ExecLatency())
	}
	// A completion next cycle needs no wakeup: this issue already makes the
	// current cycle non-idle, so no jump can start before the effect lands.
	if e.done > now+1 {
		c.WQ.Wake(e.done)
	}
}

func (c *Core) forwardFromStores(op *isa.MicroOp) bool {
	for i := 0; i < c.stores.len(); i++ {
		w := c.stores.at(i)
		if w.op.Seq >= op.Seq {
			break
		}
		if w.issued && w.op.Overlaps(op) {
			return true
		}
	}
	res := c.sb.SearchForLoad(op.Seq, op.Addr, op.Size, false)
	return res.Forward != nil
}

// dispatch steers decoded ops: IBDA marks backward address-generating
// slices; marked ops and memory ops go to the B-IQ (or, in Freeway, to the
// Y-IQ when dependent on an older slice's in-flight load), others to the
// A-IQ.
func (c *Core) dispatch() {
	for k := 0; k < c.cfg.Width; k++ {
		op := c.FE.Peek(0)
		if op == nil {
			return
		}
		if c.window.len() >= c.window.cap() {
			return
		}
		c.Acct.Inc(c.hIST, energy.Read, 1)
		// Producers are captured before the entry is materialised so a
		// capacity stall below does not consume a pooled entry. lastWriter
		// only holds in-flight entries (commit clears it), so the captured
		// pointers are live here.
		target, handle, p1, p2 := c.steer(op)
		if target.len() >= target.cap() {
			return
		}
		isSlice := target != &c.aq
		c.FE.Pop()
		e := c.alloc(op)
		if p1 != nil {
			e.prod1, e.prodSeq1 = p1, p1.op.Seq
		}
		if p2 != nil {
			e.prod2, e.prodSeq2 = p2, p2.op.Seq
		}
		// IBDA training: mark the producers of this slice op's sources.
		if isSlice {
			c.SliceOps++
			if target == &c.yq {
				c.YieldedOps++
			}
			c.trainIBDA(op)
		}
		if op.HasDst() {
			if w := c.lastWriter[op.Dst]; w != nil {
				e.waw, e.wawSeq = w, w.op.Seq
			}
			c.lastWriter[op.Dst] = e
			c.rdt[op.Dst] = op.PC
			c.Acct.Inc(c.hRDT, energy.Write, 1)
		}
		target.pushBack(e)
		c.window.pushBack(e)
		c.Emit(c.Clock, op.Seq, ptrace.KindDispatch)
		if op.Class == isa.Store {
			c.stores.pushBack(e)
		}
		c.Acct.Inc(handle, energy.Write, 1)
	}
}

// steer picks the queue op dispatches to, with that queue's energy handle:
// the B-IQ for memory ops and IST-marked slice ops — or, in Freeway, the
// Y-IQ when the op depends on an older slice's in-flight load — and the
// A-IQ otherwise. It also returns the source producers dispatch records.
// dispatch and CanDispatch share it; it has no side effects.
func (c *Core) steer(op *isa.MicroOp) (q *entRing, handle int, p1, p2 *entry) {
	if op.Src1.Valid() {
		p1 = c.lastWriter[op.Src1]
	}
	if op.Src2.Valid() {
		p2 = c.lastWriter[op.Src2]
	}
	switch {
	case !op.Class.IsMem() && !c.ist[op.PC]:
		return &c.aq, c.hAQ, p1, p2
	case c.cfg.Kind == Freeway && c.dependsOnInFlightSliceLoad(p1, p2):
		return &c.yq, c.hYQ, p1, p2
	}
	return &c.bq, c.hBQ, p1, p2
}

// dependsOnInFlightSliceLoad implements Freeway's dependent-slice test:
// the op consumes a value produced by a load that has not completed.
func (c *Core) dependsOnInFlightSliceLoad(p1, p2 *entry) bool {
	for _, p := range [...]*entry{p1, p2} {
		if p == nil {
			continue
		}
		if p.op.Class == isa.Load && (!p.issued || p.done > c.Clock) {
			return true
		}
	}
	return false
}

// trainIBDA marks the producers of a slice instruction's source registers
// in the IST (one backward level per encounter — the "iterative" part).
func (c *Core) trainIBDA(op *isa.MicroOp) {
	for _, s := range [...]isa.Reg{op.Src1, op.Src2} {
		if !s.Valid() {
			continue
		}
		pc := c.rdt[s]
		c.Acct.Inc(c.hRDT, energy.Read, 1)
		if pc == 0 || c.ist[pc] {
			continue
		}
		if len(c.ist) >= c.cfg.ISTSize {
			old := c.istOrder[0]
			c.istOrder = c.istOrder[1:]
			delete(c.ist, old)
		}
		c.ist[pc] = true
		c.istOrder = append(c.istOrder, pc)
		c.Acct.Inc(c.hIST, energy.Write, 1)
	}
}

// classifyCycle decides the cycle's CPI bucket: base if anything committed,
// otherwise the reason the oldest in-flight instruction (the commit
// bottleneck) has not retired. The window head is always the head of
// whichever queue holds it — queues fill and drain in program order among
// their members — so head-of-queue reasoning applies directly.
func (c *Core) classifyCycle(now int64, committed0 uint64) (ptrace.Bucket, uint64) {
	if c.Commits > committed0 {
		return ptrace.BucketBase, 0
	}
	if c.window.len() > 0 {
		e := c.window.at(0)
		if e.issued {
			if e.done > now {
				if e.op.Class.IsMem() {
					return ptrace.BucketDCache, e.op.Seq
				}
				return ptrace.BucketExec, e.op.Seq
			}
			// Done but uncommitted: a store waiting on a full store buffer
			// (the only commit-side resource a slice core can run out of).
			return ptrace.BucketROBSQ, e.op.Seq
		}
		if !srcsReady(e, now) {
			return ptrace.BucketSrc, e.op.Seq
		}
		if c.waitsOnStore(e) {
			// Conservative memory ordering: charged to the memory system,
			// since the wait exists only because the core cannot disambiguate.
			return ptrace.BucketDCache, e.op.Seq
		}
		return ptrace.BucketFU, e.op.Seq
	}
	if !c.FE.Done() {
		return ptrace.BucketICache, 0
	}
	return ptrace.BucketDrain, 0
}

// Package core implements the CASINO core microarchitecture — the paper's
// primary contribution (§III): cascaded in-order scheduling windows that
// dynamically and speculatively generate out-of-order issue schedules.
//
// A small FIFO Speculative IQ (S-IQ) examines a SpecInO[WS,SO] window at
// its head each cycle: ready instructions issue immediately (receiving a
// freshly allocated physical register — conditional renaming), non-ready
// instructions are passed to the next queue, where they issue strictly in
// program order sharing their current register mapping (ProducerCount +
// data buffer remove WAW hazards). Memory disambiguation needs no load
// queue: speculated loads validate themselves at commit against the
// unified SQ/SB (sentinels delay store retirement), and the OSCA filters
// redundant SQ/SB searches.
package core

import (
	"fmt"

	"casino/internal/isa"
	"casino/internal/pipeline"
)

// RenamingMode selects the renaming scheme (Fig. 7 ablation).
type RenamingMode uint8

// Renaming modes.
const (
	// RenameConditional is the paper's scheme: physical registers are
	// allocated only to instructions issued from an S-IQ.
	RenameConditional RenamingMode = iota
	// RenameConventional allocates a register to every destination
	// (the "ConV" baseline of Fig. 7).
	RenameConventional
)

func (m RenamingMode) String() string {
	if m == RenameConditional {
		return "ConD"
	}
	return "ConV"
}

// DisambigMode selects the memory disambiguation scheme (Fig. 8 ablation).
type DisambigMode uint8

// Disambiguation modes.
const (
	// DisambigOSCA is the paper's scheme: on-commit value-check with the
	// OSCA search filter.
	DisambigOSCA DisambigMode = iota
	// DisambigNoLQ is the on-commit value-check without the OSCA
	// (every speculated load searches the SQ/SB).
	DisambigNoLQ
	// DisambigAGIOrder forbids speculative issue of memory operations:
	// they always pass to the in-order IQ (the "AGI Ordering" baseline).
	DisambigAGIOrder
	// DisambigFullLQ is Fig. 8's "Fully OoO" baseline: a conventional
	// 16-entry load queue searched by resolving stores, with immediate
	// violation flushes (no on-commit value check, no OSCA).
	DisambigFullLQ
)

func (m DisambigMode) String() string {
	switch m {
	case DisambigOSCA:
		return "NoLQ+OSCA"
	case DisambigNoLQ:
		return "NoLQ"
	case DisambigFullLQ:
		return "FullLQ"
	default:
		return "AGIOrdering"
	}
}

// Config holds the CASINO core parameters (Table I plus ablation knobs).
type Config struct {
	Width      int // issue width (2 in Table I)
	SIQSize    int // first S-IQ entries (4)
	MidSIQs    int // intermediate 8-entry S-IQs for 3/4-wide designs (§VI-F)
	MidSIQSize int
	IQSize     int // final in-order IQ entries (12)
	LQSize     int // load queue entries (used by DisambigFullLQ only)
	ROBSize    int
	SQSize     int // unified SQ/SB entries (8)
	IntPRF     int // 32
	FPPRF      int // 14
	WS         int // SpecInO window size (2)
	SO         int // SpecInO sliding offset (1)
	FrontDepth int // redirect penalty (9-stage pipeline)

	DataBufSize  int // 4
	MaxProducers int // 3 (2-bit ProducerCount)
	OSCASize     int // 64 counters

	Renaming RenamingMode
	Disambig DisambigMode
	// SIQPriority gives S-IQ issues priority over IQ issues (ablation;
	// the paper argues oldest-first, i.e. IQ priority, is better).
	SIQPriority bool
	// PassOnResourceStall passes a ready-but-resource-blocked instruction
	// to the IQ instead of waiting (footnote 1 says waiting is better).
	PassOnResourceStall bool
	// Remote enables the synthetic coherence-traffic injector exercising
	// the TSO load-load ordering sentinels (§III-C4). Zero disables it,
	// matching the paper's single-core evaluation.
	Remote RemoteTraffic
}

// DefaultConfig returns the Table I CASINO configuration.
func DefaultConfig() Config {
	return Config{
		Width: 2, SIQSize: 4, IQSize: 12, LQSize: 16, ROBSize: 32, SQSize: 8,
		IntPRF: 32, FPPRF: 14, WS: 2, SO: 1, FrontDepth: 7,
		DataBufSize: 4, MaxProducers: 3, OSCASize: 64,
	}
}

// WideConfig scales CASINO to 3- or 4-wide following §VI-F: ROB/IQ/LSQ/PRF
// double (3-wide) or quadruple (4-wide), one or two 8-entry intermediate
// S-IQs are inserted, and conditional renaming is disabled because
// instructions are renamed once at the first S-IQ but may issue from any
// intermediate queue.
func WideConfig(width int) Config {
	c := DefaultConfig()
	if width <= 2 {
		return c
	}
	scale := 2
	mids := 1
	if width >= 4 {
		scale = 4
		mids = 2
	}
	c.Width = width
	c.ROBSize *= scale
	c.SQSize *= scale
	c.IntPRF *= scale
	c.FPPRF *= scale
	c.MidSIQs = mids
	c.MidSIQSize = 8
	// Total scheduling entries scale like the Table I IQ (16 * scale),
	// minus the S-IQ stages in front.
	c.IQSize = 16*scale - c.SIQSize - mids*8
	c.Renaming = RenameConventional
	return c
}

// Validate checks configuration invariants, among them that no structure
// exceeds pipeline.MaxEntries.
func (c Config) Validate() error {
	if c.Width < 1 || c.SIQSize < 1 || c.IQSize < 1 || c.SQSize < 1 || c.FrontDepth < 1 ||
		c.MidSIQs < 0 || c.MidSIQSize < 0 {
		return fmt.Errorf("core: non-positive geometry: %+v", c)
	}
	if c.Disambig == DisambigFullLQ && c.LQSize < 1 {
		return fmt.Errorf("core: the full-LQ design needs at least one LQ entry, got %d", c.LQSize)
	}
	// Renaming allocates from the registers beyond the architectural ones.
	if c.IntPRF <= isa.NumIntRegs || c.FPPRF <= isa.NumFPRegs {
		return fmt.Errorf("core: need more than %d INT and %d FP physical registers, got %d and %d",
			isa.NumIntRegs, isa.NumFPRegs, c.IntPRF, c.FPPRF)
	}
	if c.ROBSize < 4 {
		return fmt.Errorf("core: ROB size %d is below the minimum of 4", c.ROBSize)
	}
	if max(c.SIQSize, c.MidSIQs, c.MidSIQSize, c.IQSize, c.LQSize, c.ROBSize, c.SQSize,
		c.IntPRF, c.FPPRF, c.DataBufSize, c.OSCASize) > pipeline.MaxEntries {
		return fmt.Errorf("core: a structure size exceeds the %d-entry limit: %+v", pipeline.MaxEntries, c)
	}
	if c.WS < 1 || c.SO < 1 || c.WS < c.SO {
		return fmt.Errorf("core: need WS >= SO >= 1, got WS=%d SO=%d", c.WS, c.SO)
	}
	if c.MidSIQs > 0 && c.Renaming != RenameConventional {
		return fmt.Errorf("core: cascaded S-IQs require conventional renaming (§VI-F)")
	}
	if c.DataBufSize < 1 || c.MaxProducers < 1 {
		return fmt.Errorf("core: data buffer/producer bounds must be positive")
	}
	if c.OSCASize > 0 && c.OSCASize&(c.OSCASize-1) != 0 {
		return fmt.Errorf("core: OSCA size must be a power of two")
	}
	// The OSCA's 8-bit counters saturate at the SQ/SB capacity.
	if c.OSCASize > 0 && c.Disambig == DisambigOSCA && c.SQSize > 255 {
		return fmt.Errorf("core: SQ size %d exceeds the OSCA counters' 255 limit", c.SQSize)
	}
	return nil
}

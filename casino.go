// Package casino is a from-scratch, cycle-level reproduction of the CASINO
// core microarchitecture (Jeong, Park, Lee, Ro — HPCA 2020): an in-order
// pipeline that dynamically and speculatively generates out-of-order issue
// schedules using cascaded in-order scheduling windows.
//
// The package is a facade over the simulator internals. It can:
//
//   - build and run any of the evaluated core models (stall-on-use
//     in-order, full out-of-order, CASINO, Load Slice Core, Freeway, and
//     the idealized SpecInO limit study) over deterministic synthetic
//     SPEC CPU2006 stand-in workloads;
//   - report timing (IPC), structure activity, energy and area from the
//     built-in McPAT/CACTI-flavoured model;
//   - regenerate every table and figure of the paper's evaluation.
//
// Quick start:
//
//	res, err := casino.Run(casino.Spec{
//		Model:    casino.ModelCASINO,
//		Workload: "libquantum",
//	})
//	fmt.Printf("IPC = %.3f\n", res.IPC)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package casino

import (
	"casino/internal/core"
	"casino/internal/ino"
	"casino/internal/mem"
	"casino/internal/ooo"
	"casino/internal/sim"
	"casino/internal/slice"
	"casino/internal/specino"
	"casino/internal/trace"
	"casino/internal/workload"
)

// Model names accepted by Spec.Model.
const (
	ModelInO     = sim.ModelInO
	ModelOoO     = sim.ModelOoO
	ModelOoONoLQ = sim.ModelOoONoLQ
	ModelCASINO  = sim.ModelCASINO
	ModelLSC     = sim.ModelLSC
	ModelFreeway = sim.ModelFreeway
	ModelSpecInO = sim.ModelSpecInO
)

// Core simulation types (aliases into the simulator; external users need
// not import internal packages).
type (
	// Spec describes one simulation run.
	Spec = sim.Spec
	// Result is the outcome of one measured run.
	Result = sim.Result
	// Options parameterizes an experiment suite (which apps, how many
	// instructions, which seed).
	Options = sim.Options

	// CASINOConfig configures the CASINO core (Table I defaults via
	// DefaultCASINOConfig; ablation knobs documented on the type).
	CASINOConfig = core.Config
	// InOConfig configures the stall-on-use in-order baseline.
	InOConfig = ino.Config
	// OoOConfig configures the out-of-order baseline.
	OoOConfig = ooo.Config
	// SliceConfig configures the LSC/Freeway slice cores.
	SliceConfig = slice.Config
	// SpecInOConfig configures the idealized SpecInO limit study.
	SpecInOConfig = specino.Config
	// MemConfig configures the cache/DRAM hierarchy.
	MemConfig = mem.Config

	// Trace is a dynamic micro-op trace.
	Trace = trace.Trace
	// WorkloadProfile describes a synthetic application profile.
	WorkloadProfile = workload.Profile
)

// Renaming and disambiguation modes for CASINOConfig.
const (
	RenameConditional  = core.RenameConditional
	RenameConventional = core.RenameConventional
	DisambigOSCA       = core.DisambigOSCA
	DisambigNoLQ       = core.DisambigNoLQ
	DisambigAGIOrder   = core.DisambigAGIOrder
	DisambigFullLQ     = core.DisambigFullLQ
)

// Default configurations (Table I).
func DefaultCASINOConfig() CASINOConfig { return core.DefaultConfig() }

// DefaultInOConfig returns the Table I in-order baseline configuration.
func DefaultInOConfig() InOConfig { return ino.DefaultConfig() }

// DefaultOoOConfig returns the Table I out-of-order configuration.
func DefaultOoOConfig() OoOConfig { return ooo.DefaultConfig() }

// DefaultMemConfig returns the Table I memory system configuration.
func DefaultMemConfig() MemConfig { return mem.DefaultConfig() }

// WideCASINOConfig scales CASINO to 3- or 4-wide (§VI-F: cascaded S-IQs).
func WideCASINOConfig(width int) CASINOConfig { return core.WideConfig(width) }

// WideOoOConfig scales the OoO baseline to 3- or 4-wide.
func WideOoOConfig(width int) OoOConfig { return ooo.WideConfig(width) }

// DefaultSliceConfig returns the §VI-A2 LSC or Freeway configuration.
func DefaultSliceConfig(freeway bool) SliceConfig {
	if freeway {
		return slice.DefaultConfig(slice.Freeway)
	}
	return slice.DefaultConfig(slice.LSC)
}

// DefaultSpecInOConfig returns the SpecInO[ws,so] limit-study model.
func DefaultSpecInOConfig(ws, so int) SpecInOConfig { return specino.DefaultConfig(ws, so) }

// Run executes one simulation and returns its result.
func Run(s Spec) (Result, error) { return sim.Run(s) }

// Models lists every runnable model name.
func Models() []string { return sim.Models() }

// Workloads lists the 25 synthetic SPEC CPU2006 stand-in profiles
// (SPECint first).
func Workloads() []string { return workload.Names() }

// WorkloadByName returns a workload profile.
func WorkloadByName(name string) (*WorkloadProfile, error) { return workload.ByName(name) }

// GenerateTrace produces a deterministic dynamic trace of at least n
// micro-ops for the named workload.
func GenerateTrace(name string, n int, seed int64) (*Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.Generate(p, n, seed), nil
}

// Figures lists the reproducible table/figure identifiers.
func Figures() []string { return sim.FigureIDs() }

// Figure regenerates one of the paper's tables or figures as a rendered
// text table. Identifiers are those returned by Figures, or their short
// aliases ("6", "10a"), in any case.
func Figure(id string, o Options) (string, error) {
	text, _, err := sim.RunFigure(id, o)
	return text, err
}

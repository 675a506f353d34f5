package ooo

import (
	"sync"
	"testing"

	"casino/internal/energy"
	"casino/internal/mem"
	"casino/internal/trace"
	"casino/internal/workload"
)

// benchTrace is the gcc trace every benchmark core replays (read-only, so
// one copy serves every core).
var benchTrace = sync.OnceValue(func() *trace.Trace {
	p, err := workload.ByName("gcc")
	if err != nil {
		panic(err)
	}
	return workload.Generate(p, 200_000, 1)
})

// steadyStateCore returns a core 20,000 cycles into the gcc trace, past
// the start-up growth of its predictor tables and cache maps.
func steadyStateCore(cfg Config) *Core {
	c := New(cfg, benchTrace(), mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
	for i := 0; i < 20_000 && !c.Done(); i++ {
		c.Cycle()
	}
	return c
}

// BenchmarkOoOCycle measures the raw cycle kernel (with allocation stats),
// bypassing trace generation and harness bookkeeping, with the load queue
// (ooo) and without it (ooo-nolq).
func BenchmarkOoOCycle(b *testing.B) {
	for _, noLQ := range []bool{false, true} {
		name := "ooo"
		if noLQ {
			name = "ooo-nolq"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NoLQ = noLQ
			c := steadyStateCore(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Done() {
					// Long benchmark runs outlive the trace; swap in a fresh
					// warm core off the clock (StopTimer also suspends alloc
					// counting).
					b.StopTimer()
					c = steadyStateCore(cfg)
					b.StartTimer()
				}
				c.Cycle()
			}
		})
	}
}

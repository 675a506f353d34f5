package slice

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
func steadyStateCore(kind Kind) *Core {
	c := New(DefaultConfig(kind), benchTrace(), mem.NewHierarchy(mem.DefaultConfig()), energy.NewAccountant())
	for i := 0; i < 20_000 && !c.Done(); i++ {
		c.Cycle()
	}
	return c
}

// BenchmarkSliceCycle measures the raw cycle kernel (with allocation
// stats) of the Load Slice Core and of Freeway, bypassing trace generation
// and harness bookkeeping.
func BenchmarkSliceCycle(b *testing.B) {
	for _, kind := range []Kind{LSC, Freeway} {
		b.Run(kind.String(), func(b *testing.B) {
			c := steadyStateCore(kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Done() {
					// Long benchmark runs outlive the trace; swap in a fresh
					// warm core off the clock (StopTimer also suspends alloc
					// counting).
					b.StopTimer()
					c = steadyStateCore(kind)
					b.StartTimer()
				}
				c.Cycle()
			}
		})
	}
}

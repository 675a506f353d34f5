package main

import (
	"math/rand"
	"sync"
	"time"
)

// The benchmark's reference host is a 2-vCPU VM on a shared machine whose
// speed drifts: for seconds to minutes at a time the same work runs up to
// 2x slower, on every workload at once. Medians over repeats cannot
// remove a slowdown that covers a whole run. So a run also times a fixed
// calibration probe before its first repeat and after every repeat, and
// scales each repeat's times by probeRefMs over the mean of the two probes
// around it: they read as times on the reference host at its quiet speed. The probe uses none of the simulator's code, so a
// change to the simulator cannot move it, and it runs one goroutine per
// worker, as the workloads do. Set-up time is not scaled: trace generation
// runs on one goroutine and does not follow the two-goroutine probe. The
// raw times are printed too (raw.*).

// probeRefMs is the probe's duration on the quiet reference host (2-vCPU
// Intel Xeon VM, go1.24.0, GOMAXPROCS 2).
const probeRefMs = 70

// probeSteps is the length of one goroutine's probe.
const probeSteps = 800_000

// probe is a pointer chase through an 8 MiB permutation (beyond the L2,
// like the memory-bound applications' footprints) with integer and
// branch work on a small table between the loads.
type probe struct{ perm []uint32 }

var probeSink uint64

func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	perm := make([]uint32, 1<<21)
	for i := range perm {
		perm[i] = uint32(i)
	}
	// Sattolo's algorithm: one cycle through every slot.
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	p := &probe{perm}
	p.run(1) // the first pass runs cold
	return p
}

// run times one probe on workers goroutines and returns it in ms.
func (p *probe) run(workers int) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var tbl [4096]uint32
			x := uint32(g * 7919)
			acc := uint64(g) + 1
			for i := 0; i < probeSteps; i++ {
				x = p.perm[x]
				acc ^= uint64(x)
				for k := 0; k < 12; k++ {
					acc ^= acc << 13
					acc ^= acc >> 7
					acc ^= acc << 17
					if acc&3 == 0 {
						acc += uint64(k)
					}
					tbl[acc&4095]++
				}
			}
			mu.Lock()
			probeSink += acc + uint64(tbl[x&4095])
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return msSince(t0)
}

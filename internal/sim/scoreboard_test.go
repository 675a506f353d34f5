package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"casino/internal/ooo"
	"casino/internal/specino"
	"casino/internal/workload"
)

// setScoreboard flips the producer-push wakeup machinery in the two models
// that have a scan-based oracle path, restoring the env-derived defaults
// when the test ends.
func setScoreboard(t *testing.T, on bool) {
	t.Helper()
	spec0, ooo0 := specino.NoScoreboard, ooo.NoScoreboard
	t.Cleanup(func() { specino.NoScoreboard, ooo.NoScoreboard = spec0, ooo0 })
	specino.NoScoreboard = !on
	ooo.NoScoreboard = !on
}

// TestScoreboardCrossValidation is the randomized oracle check for the
// producer-push wakeup paths: every model, on randomly drawn short
// workloads/seeds/lengths, must produce bit-identical results whether
// readiness comes from the scoreboard bitmaps or from the retained
// poll-every-entry scans (CASINO_NO_SCOREBOARD=1). The workload draw is
// seeded, so failures reproduce.
func TestScoreboardCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	names := workload.Names()
	for _, m := range Models() {
		for trial := 0; trial < 3; trial++ {
			wl := names[rng.Intn(len(names))]
			ops := 2000 + rng.Intn(4000)
			spec := Spec{
				Model:    m,
				Workload: wl,
				Ops:      ops,
				Warmup:   ops / 4,
				Seed:     rng.Int63n(1 << 30),
			}
			setScoreboard(t, true)
			on, err := Run(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", m, wl, err)
			}
			setScoreboard(t, false)
			off, err := Run(spec)
			if err != nil {
				t.Fatalf("%s/%s (scan oracle): %v", m, wl, err)
			}
			checkBitIdentical(t, fmt.Sprintf("%s/%s seed=%d ops=%d (scoreboard vs scan)",
				m, wl, spec.Seed, ops), on, off)
		}
	}
}

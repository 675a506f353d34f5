package dse

import (
	"math"
	"sort"

	"casino/internal/sim"
)

// Point is one design point in the IPC × energy plane. Higher IPC is
// better; lower energy per instruction is better.
type Point struct {
	Cell          string  `json:"cell"` // Cell.Key()
	Model         string  `json:"model"`
	Workload      string  `json:"workload"`
	IPC           float64 `json:"ipc"`
	EnergyPerInst float64 `json:"energy_per_inst_pj"`
	PerfPerEnergy float64 `json:"perf_per_energy"`

	// Sampled marks an estimate from sampled fidelity; IPCCI95 is then the
	// half-width of its 95% confidence interval (0 for full fidelity).
	// Final sweep results never carry Sampled points — the sampled phase
	// only decides what gets promoted.
	Sampled bool    `json:"sampled,omitempty"`
	IPCCI95 float64 `json:"ipc_ci95,omitempty"`
}

// pointsOf projects each cell's result onto the Pareto plane.
func pointsOf(cells []Cell, results []sim.Result) []Point {
	points := make([]Point, len(results))
	for i, r := range results {
		c := cells[i]
		points[i] = Point{
			Cell:          c.Key(),
			Model:         c.Model,
			Workload:      c.Workload,
			IPC:           r.IPC,
			EnergyPerInst: r.EnergyPerInst,
			PerfPerEnergy: r.PerfPerEnergy,
		}
		if r.Sampled != nil {
			points[i].Sampled = true
			points[i].IPCCI95 = r.Sampled.IPCCI95
		}
	}
	return points
}

// Frontier returns the Pareto-optimal subset of points: a point survives
// unless some other point has >= IPC and <= energy with at least one
// strict inequality. The frontier is returned sorted by ascending IPC
// (and, for stable output, by cell key among equals).
func Frontier(points []Point) []Point {
	pts := append([]Point(nil), points...)
	// Sort best-first: IPC descending, energy ascending, key for stability.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].IPC != pts[j].IPC {
			return pts[i].IPC > pts[j].IPC
		}
		if pts[i].EnergyPerInst != pts[j].EnergyPerInst {
			return pts[i].EnergyPerInst < pts[j].EnergyPerInst
		}
		return pts[i].Cell < pts[j].Cell
	})
	// Sweep best-IPC-first keeping every point that strictly improves the
	// minimum energy seen so far. A point tying the current best on both
	// axes is co-optimal (no strict inequality) and kept too.
	var out []Point
	bestEnergy := math.Inf(1)
	bestIPC := math.Inf(-1)
	for _, p := range pts {
		switch {
		case p.EnergyPerInst < bestEnergy:
			out = append(out, p)
			bestEnergy, bestIPC = p.EnergyPerInst, p.IPC
		case p.EnergyPerInst == bestEnergy && p.IPC == bestIPC:
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IPC != out[j].IPC {
			return out[i].IPC < out[j].IPC
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// PromoteSet selects which cells of a sampled phase must be re-run at
// full fidelity, by index into points. Frontiers are per workload
// (cross-workload IPCs are not comparable): a point is promoted unless
// some other point of its workload dominates it even after crediting the
// point's IPC with its full 95% confidence interval (energy is compared
// at face value — the energy estimate has no CI, it extrapolates
// deterministically from the windows). That promotes the sampled Pareto
// frontier plus every CI-overlap candidate — any point the sample cannot
// statistically rule off the frontier — and demotes only points dominated
// beyond their own error bar. Indexes are returned ascending, so the
// promoted cell list inherits the expansion's deterministic order.
func PromoteSet(points []Point) []int {
	byWorkload := map[string][]int{}
	for i, p := range points {
		byWorkload[p.Workload] = append(byWorkload[p.Workload], i)
	}
	var out []int
	for _, idxs := range byWorkload {
		for _, i := range idxs {
			p := points[i]
			credit := p.IPC + p.IPCCI95
			dominated := false
			for _, j := range idxs {
				if j == i {
					continue
				}
				q := points[j]
				if q.IPC >= credit && q.EnergyPerInst <= p.EnergyPerInst &&
					(q.IPC > credit || q.EnergyPerInst < p.EnergyPerInst) {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// FrontierByWorkload groups the points per workload and reduces each
// group to its Pareto frontier — cross-workload IPCs are not comparable,
// so each workload gets its own frontier.
func FrontierByWorkload(points []Point) map[string][]Point {
	groups := map[string][]Point{}
	for _, p := range points {
		groups[p.Workload] = append(groups[p.Workload], p)
	}
	out := make(map[string][]Point, len(groups))
	for w, pts := range groups {
		out[w] = Frontier(pts)
	}
	return out
}

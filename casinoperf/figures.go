package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"casino/internal/manifest"
	"casino/internal/sim"
	"casino/internal/workload"
)

// maxSampledMAPE bounds the sampled figures' mean per-figure
// normalized-IPC MAPE against full fidelity. DESIGN.md's 3% holds at the
// default seed (1.3% there), but the error is a sampling error that varies
// with the seed: over 70 seeds it had median 1.4%, and one seed reached
// 3.2%. 5% passes every seed measured.
const maxSampledMAPE = 0.05

// figures regenerates every manifest figure of the paper, at full or at
// sampled fidelity. One operation is one figure; one repeat is all nine.
type figures struct {
	opts    sim.Options
	sampled bool
	golden  string
	first   *manifest.Manifest // repeat 1's merged manifest
}

func newFigures(cfg config, sampled bool) *figures {
	f := &figures{
		opts: sim.Options{
			Apps: cfg.size.apps, Ops: cfg.size.ops, Warmup: cfg.size.warmup,
			Seed: cfg.seed, Workers: cfg.workers,
		},
		sampled: sampled,
		golden:  filepath.Join(cfg.repo, "golden", "fig_all.json"),
	}
	if sampled {
		f.opts.Sampling = &sim.Sampling{}
	}
	return f
}

func (f *figures) apps() []string {
	if len(f.opts.Apps) > 0 {
		return f.opts.Apps
	}
	return workload.Names()
}

// setup generates every application's trace afresh.
func (f *figures) setup(b *bench, parent int) error {
	return genTraces(b, parent, f.apps(), f.opts.Ops+f.opts.Warmup, f.opts.Seed)
}

// genTraces empties the process-wide trace cache and fills it again.
func genTraces(b *bench, parent int, apps []string, n int, seed int64) error {
	sim.ResetSharedTraces()
	id := b.spans.start("trace_gen", parent)
	defer b.spans.end(id)
	for _, app := range apps {
		if _, err := sim.SharedTrace(app, n, seed); err != nil {
			return err
		}
	}
	return nil
}

// repeat builds each figure's manifest in turn and merges them into the
// manifest BuildManifest("all") would return.
func (f *figures) repeat(b *bench, parent int) (rep, error) {
	merged := manifest.New("all")
	var ops []float64
	r, err := inProcess(func() error {
		for _, fig := range sim.ManifestFigures() {
			id := b.spans.start("figure."+fig, parent)
			t0 := time.Now()
			m, err := sim.BuildManifest(fig, f.opts)
			ms := msSince(t0)
			b.spans.end(id)
			if err != nil {
				return err
			}
			ops = append(ops, ms)
			merged.Ops, merged.Warmup, merged.Seed, merged.Apps = m.Ops, m.Warmup, m.Seed, m.Apps
			merged.GoVersion, merged.Workloads = m.GoVersion, m.Workloads
			for k, v := range m.Metrics {
				merged.Metrics[k] = v
			}
		}
		return nil
	})
	r.ops = ops
	if err != nil {
		r.failed = 1
		return r, err
	}
	r.digest = digest(merged.Metrics, merged.Workloads)
	if f.first == nil {
		f.first = merged
	}
	return r, nil
}

// check compares outputs with the full-fidelity reference. figures-full at
// the golden seed: an untimed run at the golden spec (or repeat 1, if the
// run already has that spec) must equal the golden manifest exactly.
// figures-sampled: repeat 1's normalized IPC against the golden manifest
// where its spec matches the run's, else against a fresh untimed
// full-fidelity run.
func (f *figures) check(b *bench, parent int) {
	mape := 0.0
	defer func() { b.emit("norm_ipc_mape", mape, "frac", 1) }()
	if f.first == nil {
		return
	}
	golden, err := manifest.ReadFile(f.golden)
	if err != nil {
		b.gate("read golden", err)
		return
	}
	matches := golden.Ops == f.first.Ops && golden.Warmup == f.first.Warmup &&
		golden.Seed == f.first.Seed && strings.Join(golden.Apps, ",") == strings.Join(f.first.Apps, ",")

	if !f.sampled {
		if golden.Seed != f.opts.Seed {
			return // only repeat identity applies away from the golden seed
		}
		got := f.first
		if !matches {
			spec := f.opts
			spec.Apps, spec.Ops, spec.Warmup = nil, golden.Ops, golden.Warmup
			id := b.spans.start("reference", parent)
			got, err = sim.BuildManifest("all", spec)
			b.spans.end(id)
			if err != nil {
				b.gate("golden-spec run", err)
				return
			}
		}
		diffs := manifest.Compare(golden, got, manifest.CompareOptions{Default: manifest.Tolerance{Abs: 1e-300}})
		b.gate("figures match golden", diffsErr(diffs))
		return
	}

	ref := golden
	if !matches {
		full := f.opts
		full.Sampling = nil
		id := b.spans.start("reference", parent)
		ref, err = sim.BuildManifest("all", full)
		b.spans.end(id)
		if err != nil {
			b.gate("full-fidelity reference", err)
			return
		}
	}
	mape, err = normIPCMAPE(ref, f.first)
	if err == nil && mape > maxSampledMAPE {
		err = fmt.Errorf("normalized-IPC MAPE %.4f exceeds %.2f", mape, maxSampledMAPE)
	}
	b.gate("sampled figures within error budget", err)
}

// normIPCMAPE is the mean over figures of each figure's mean absolute
// percentage error on its normalized-IPC metrics, computed like
// `casino-bench -perf -ab`.
func normIPCMAPE(full, sampled *manifest.Manifest) (float64, error) {
	sum := map[string]float64{}
	n := map[string]int{}
	for k, fv := range full.Metrics {
		if !strings.Contains(k, "norm_ipc") || fv == 0 {
			continue
		}
		sv, ok := sampled.Metrics[k]
		if !ok {
			return 0, fmt.Errorf("sampled manifest lacks %s", k)
		}
		fig, _, _ := strings.Cut(k, ".")
		sum[fig] += math.Abs((sv - fv) / fv)
		n[fig]++
	}
	if len(n) == 0 {
		return 0, fmt.Errorf("no normalized-IPC metrics to compare")
	}
	var mape float64
	for fig := range n {
		mape += sum[fig] / float64(n[fig])
	}
	return mape / float64(len(n)), nil
}

func diffsErr(diffs []manifest.Diff) error {
	if len(diffs) == 0 {
		return nil
	}
	lines := make([]string, 0, 3)
	for _, d := range diffs[:min(3, len(diffs))] {
		lines = append(lines, d.String())
	}
	return fmt.Errorf("%d difference(s), first: %s", len(diffs), strings.Join(lines, "; "))
}

// digest hashes values in a canonical JSON form (map keys sorted).
func digest(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			// Only NaN or Inf metrics fail to encode; let them differ.
			b = []byte(fmt.Sprint(v))
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package stats

import "fmt"

// MetricKind classifies a registry entry. The kind determines how Flatten
// expands the metric into scalar (name, value) pairs and lets downstream
// consumers (the run-manifest comparator) pick per-kind tolerances.
type MetricKind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically accumulated event count. Publishing
	// the same counter name again adds to it, so several publishers can
	// contribute to one total.
	KindCounter MetricKind = iota
	// KindGauge is an instantaneous or derived scalar; republishing
	// overwrites.
	KindGauge
	// KindRatio is a dimensionless quotient recorded with Ratio-style
	// zero-denominator protection; republishing overwrites.
	KindRatio
	// KindHist summarizes a distribution (a *Hist snapshot): mean, count
	// and overflow fraction.
	KindHist
)

// String returns the kind's manifest-stable name.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindRatio:
		return "ratio"
	case KindHist:
		return "hist"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Metric is one published value. For KindHist, Value is the distribution
// mean, Count the number of observations and Overflow the fraction of
// observations beyond the bucketed range; for the scalar kinds only Value
// is meaningful.
type Metric struct {
	Name     string     `json:"name"`
	Kind     MetricKind `json:"kind"`
	Value    float64    `json:"value"`
	Count    uint64     `json:"count,omitempty"`
	Overflow float64    `json:"overflow,omitempty"`
	// P50/P90/P99 are distribution quantiles, recorded for KindHist only
	// (see Hist.Quantile for the overflow-bucket caveat).
	P50 float64 `json:"p50,omitempty"`
	P90 float64 `json:"p90,omitempty"`
	P99 float64 `json:"p99,omitempty"`
}

// Registry collects the typed metrics of one simulation run. The cycle
// kernels and the energy accountant publish into it after a run completes
// (the hot path keeps its dense counters and histograms; publishing is a
// once-per-run snapshot).
type Registry struct {
	m map[string]*Metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*Metric)}
}

func (r *Registry) get(name string, kind MetricKind) *Metric {
	if mt, ok := r.m[name]; ok {
		if mt.Kind != kind {
			panic(fmt.Sprintf("stats: metric %q republished as %v, was %v", name, kind, mt.Kind))
		}
		return mt
	}
	mt := &Metric{Name: name, Kind: kind}
	r.m[name] = mt
	return mt
}

// Counter adds n to the named counter, creating it at zero first.
func (r *Registry) Counter(name string, n uint64) {
	r.get(name, KindCounter).Value += float64(n)
}

// Gauge sets the named gauge to v.
func (r *Registry) Gauge(name string, v float64) {
	r.get(name, KindGauge).Value = v
}

// SetRatio records num/den (0 if den is 0) under name.
func (r *Registry) SetRatio(name string, num, den float64) {
	r.get(name, KindRatio).Value = Ratio(num, den)
}

// Hist snapshots h under name: mean, observation count and overflow
// fraction. A nil histogram records an empty snapshot.
func (r *Registry) Hist(name string, h *Hist) {
	mt := r.get(name, KindHist)
	if h == nil {
		mt.Value, mt.Count, mt.Overflow = 0, 0, 0
		return
	}
	mt.Value = h.Mean()
	mt.Count = h.Count()
	if h.Count() > 0 {
		mt.Overflow = float64(h.Overflow()) / float64(h.Count())
	}
	mt.P50 = float64(h.Quantile(0.50))
	mt.P90 = float64(h.Quantile(0.90))
	mt.P99 = float64(h.Quantile(0.99))
}

// Lookup returns the named metric, or false if absent.
func (r *Registry) Lookup(name string) (Metric, bool) {
	if mt, ok := r.m[name]; ok {
		return *mt, true
	}
	return Metric{}, false
}

// Flatten expands every metric into scalar (name, value) pairs: scalar
// kinds map to their value under the bare name; hists expand to
// name+".mean" and name+".count" (overflow is added as ".overflow" only
// when non-zero, so the common in-range case stays compact).
func (r *Registry) Flatten() map[string]float64 {
	out := make(map[string]float64, len(r.m))
	for name, mt := range r.m {
		switch mt.Kind {
		case KindHist:
			out[name+".mean"] = mt.Value
			out[name+".count"] = float64(mt.Count)
			if mt.Overflow != 0 {
				out[name+".overflow"] = mt.Overflow
			}
			out[name+".p50"] = mt.P50
			out[name+".p90"] = mt.P90
			out[name+".p99"] = mt.P99
		default:
			out[name] = mt.Value
		}
	}
	return out
}

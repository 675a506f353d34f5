// Package telemetry is a dependency-free bridge from the repo's internal
// instrumentation (atomic counters, stats.Hist distributions, on-demand
// collector functions) to the Prometheus text exposition format, served
// by casino-server at GET /metrics.
//
// It deliberately reimplements the tiny subset of a metrics client the
// service needs rather than vendoring one: instruments are registered
// once at wiring time, scraped rarely, and rendered deterministically
// (families and series sorted by name, then label signature), so the
// whole surface is a few hundred lines that the in-repo linter (Lint)
// can hold to the format grammar in CI.
//
// Telemetry lives strictly outside the simulation result path: nothing
// here is ever published into a stats.Registry, run manifest, or golden
// figure, so scraping /metrics mid-sweep cannot perturb results (see
// TestTelemetryManifestUnperturbed in the dse package).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"casino/internal/stats"
)

// Label is one constant name="value" pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// Instrument kinds, matching the exposition TYPE keywords.
const (
	typeCounter = "counter"
	typeGauge   = "gauge"
	typeSummary = "summary"
)

// Counter is a monotonically increasing value. Safe for concurrent use.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous value that may go up or down. Safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Summary is a mutex-guarded distribution rendered as a Prometheus
// summary: p50/p90/p99 quantile series plus _sum and _count. It wraps
// stats.Hist — the same histogram the simulator uses — so service-side
// latency distributions and model-side occupancy distributions share one
// implementation. Values above the bucket range land in the overflow
// bucket; quantiles there report the range bound (a lower bound).
type Summary struct {
	mu  sync.Mutex
	h   *stats.Hist
	sum float64
}

// NewSummary creates a summary bucketing integer values 0..max-1.
func NewSummary(max int) *Summary {
	return &Summary{h: stats.NewHist(max)}
}

// Observe records one observation. The histogram buckets the value
// rounded to the nearest integer; the _sum series keeps full precision.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.h.Add(int(v + 0.5))
	s.sum += v
	s.mu.Unlock()
}

// snapshot returns (count, sum, p50, p90, p99) atomically.
func (s *Summary) snapshot() (uint64, float64, float64, float64, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Count(), s.sum,
		float64(s.h.Quantile(0.50)), float64(s.h.Quantile(0.90)), float64(s.h.Quantile(0.99))
}

// series is one sample stream within a family: a constant label set plus
// exactly one value source.
type series struct {
	labels []Label
	sig    string // canonical sorted-label signature, for dedupe + ordering

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	summary *Summary
}

// family groups every series sharing a metric name. One TYPE/HELP pair is
// rendered per family.
type family struct {
	name, help, typ string
	series          []*series
	index           map[string]*series
}

// Registry holds the registered instrument families and renders them.
// Registration methods are get-or-create: registering the same name with
// the same label set returns the existing instrument, so dynamically
// labeled counters (per-status-code request counts) need no caller-side
// cache. Registering a name under a conflicting kind panics — that is a
// wiring bug, same policy as stats.Registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	onScrape []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// OnScrape registers fn to run at the start of every exposition, before
// any collector function is consulted. Used to batch expensive snapshots
// (one runtime.ReadMemStats feeding many series).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// getSeries finds or creates the series for name+labels and calls source
// on it under r.mu, so a new series' value source is installed before any
// scrape can see the series.
func (r *Registry) getSeries(name, help, typ string, labels []Label, source func(*series)) {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !ValidLabelName(l.Name) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l.Name, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, index: map[string]*series{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, was %s", name, typ, f.typ))
	}
	sig := labelSignature(labels)
	s, ok := f.index[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...), sig: sig}
		f.index[sig] = s
		f.series = append(f.series, s)
	}
	source(s)
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	var c *Counter
	r.getSeries(name, help, typeCounter, labels, func(s *series) {
		if s.counter == nil && s.fn == nil {
			s.counter = &Counter{}
		}
		c = s.counter
	})
	if c == nil {
		panic(fmt.Sprintf("telemetry: series %q%s is a collector function, not a Counter", name, labelSignature(labels)))
	}
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	var g *Gauge
	r.getSeries(name, help, typeGauge, labels, func(s *series) {
		if s.gauge == nil && s.fn == nil {
			s.gauge = &Gauge{}
		}
		g = s.gauge
	})
	if g == nil {
		panic(fmt.Sprintf("telemetry: series %q%s is a collector function, not a Gauge", name, labelSignature(labels)))
	}
	return g
}

// CounterFunc registers a counter series whose value is collected by fn
// at scrape time — the bridge for counters that already live elsewhere
// (result-cache hit totals, engine cell counts).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.getSeries(name, help, typeCounter, labels, func(s *series) { s.fn = fn })
}

// GaugeFunc registers a gauge series collected by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.getSeries(name, help, typeGauge, labels, func(s *series) { s.fn = fn })
}

// Summary creates and registers a new summary for name+labels.
func (r *Registry) Summary(name, help string, max int, labels ...Label) *Summary {
	s := NewSummary(max)
	r.RegisterSummary(name, help, s, labels...)
	return s
}

// RegisterSummary registers an existing Summary (one an engine already
// observes into) under name+labels.
func (r *Registry) RegisterSummary(name, help string, sum *Summary, labels ...Label) {
	r.getSeries(name, help, typeSummary, labels, func(s *series) { s.summary = sum })
}

// WritePrometheus renders every family in text exposition format 0.0.4:
// families sorted by name, series within a family sorted by label
// signature, one HELP/TYPE pair per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.onScrape {
		fn()
	}
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := r.families[n]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		ordered := append([]*series(nil), f.series...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].sig < ordered[j].sig })
		for _, s := range ordered {
			writeSeries(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.summary != nil:
		count, sum, p50, p90, p99 := s.summary.snapshot()
		quant := func(q string, v float64) {
			writeSample(b, f.name, append(append([]Label(nil), s.labels...), Label{"quantile", q}), v)
		}
		quant("0.5", p50)
		quant("0.9", p90)
		quant("0.99", p99)
		writeSample(b, f.name+"_sum", s.labels, sum)
		writeSample(b, f.name+"_count", s.labels, float64(count))
	case s.fn != nil:
		writeSample(b, f.name, s.labels, s.fn())
	case s.counter != nil:
		writeSample(b, f.name, s.labels, float64(s.counter.Value()))
	case s.gauge != nil:
		writeSample(b, f.name, s.labels, s.gauge.Value())
	}
}

func writeSample(b *strings.Builder, name string, labels []Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// formatValue renders v the way Prometheus expects: shortest round-trip
// float, with the spec's spellings for the non-finite values.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelSignature canonicalizes a label set: sorted by name, rendered in
// exposition syntax. Empty label sets map to "".
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ordered := append([]Label(nil), labels...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ordered {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Handler serves the registry as text/plain exposition format 0.0.4.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
	})
}

// ValidMetricName reports whether name matches the exposition grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ValidLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]* and
// is not reserved (double-underscore prefix).
func ValidLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

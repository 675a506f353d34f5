// Package manifest defines the versioned, machine-readable record of one
// experiment run: which figures ran, under what spec (ops, warm-up, seed,
// apps), the fingerprints of the workload traces that were replayed, and
// every metric the run produced as a flat name → value map. Checked-in
// golden manifests turn the paper-reproduction numbers in EXPERIMENTS.md
// into executable assertions: `casino-bench compare` diffs two manifests
// with per-metric tolerance bands and exits non-zero on drift.
package manifest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Version is the manifest schema version. Decode rejects any other value:
// a version bump means the metric naming, spec encoding or fingerprint
// definition changed, and a silent cross-version comparison would report
// drift where there is only renaming. Version 2 fingerprints traces with
// the word-wise FNV-1a of trace.Refingerprint (five 64-bit words per op);
// version 1 hashed the same fields byte by byte, so every version 1
// fingerprint differs.
const Version = 2

// Manifest is the machine-readable outcome of one casino-bench run.
type Manifest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"` // "casino-bench/figures"

	// The experiment spec: which figure set, over which workloads, how
	// many instructions and which generation seed. Compare requires these
	// to match exactly — diffing runs of different experiments is a
	// category error, not drift.
	Figure string   `json:"figure"` // figure id, or "all"
	Ops    int      `json:"ops"`
	Warmup int      `json:"warmup"`
	Seed   int64    `json:"seed"`
	Apps   []string `json:"apps"`

	// Workloads maps app name → the %016x fingerprint of its generated
	// trace: FNV-1a over each op's five 64-bit words, as
	// trace.Refingerprint defines it. A fingerprint mismatch means the
	// workload generator changed: every downstream metric is then
	// incomparable.
	Workloads map[string]string `json:"workload_fingerprints"`

	// Metrics is the flat registry snapshot: figure aggregates (geomean
	// speedups, energy ratios) plus per-model means of the per-run
	// metrics. All drift gating happens here.
	Metrics map[string]float64 `json:"metrics"`

	// Cells is the provenance of multi-cell (sweep) manifests: one entry
	// per simulated design point, sorted by Key, each naming the cell and
	// the spec/trace fingerprints its metrics were produced under. Figure
	// manifests leave it empty. Compare checks cells exactly — a sweep
	// whose cell set or fingerprints moved is a different experiment.
	Cells []Cell `json:"cells,omitempty"`

	// Informational environment fields, never compared.
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	GoVersion   string  `json:"go_version"`
}

// KindFigures is the Kind value written by casino-bench figure runs.
const KindFigures = "casino-bench/figures"

// KindSweep is the Kind value written by DSE sweep runs (the casino-server
// service and `casino-bench sweep`).
const KindSweep = "casino-dse/sweep"

// Cell records the provenance of one sweep design point: its stable key
// (workload/model plus the parameter overrides), and the %016x FNV-1a
// fingerprints of the resolved spec and of the replayed workload trace.
type Cell struct {
	Key      string `json:"key"`
	Model    string `json:"model"`
	Workload string `json:"workload"`
	SpecFP   string `json:"spec_fingerprint"`
	TraceFP  string `json:"trace_fingerprint"`
}

// New returns an empty manifest at the current schema version.
func New(figure string) *Manifest {
	return &Manifest{
		Version:   Version,
		Kind:      KindFigures,
		Figure:    figure,
		Workloads: map[string]string{},
		Metrics:   map[string]float64{},
	}
}

// VersionError reports a manifest whose schema version this binary does
// not speak.
type VersionError struct {
	Got int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("manifest: version %d not supported (want %d)", e.Got, Version)
}

// Decode reads a manifest from r, rejecting unknown schema versions with
// a *VersionError.
func Decode(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: decode: %w", err)
	}
	if m.Version != Version {
		return nil, &VersionError{Got: m.Version}
	}
	if m.Metrics == nil {
		m.Metrics = map[string]float64{}
	}
	if m.Workloads == nil {
		m.Workloads = map[string]string{}
	}
	if len(m.Cells) == 0 {
		m.Cells = nil // Encode omits an empty list; decode it as absent too
	}
	return &m, nil
}

// Encode writes the manifest as indented JSON (sorted keys, trailing
// newline) so checked-in goldens diff cleanly. The bytes are those of an
// encoding/json Encoder with a two-space indent, written in one pass: the
// fields in declaration order, map keys sorted, and floats, integers and
// strings formatted as encoding/json formats them.
func (m *Manifest) Encode(w io.Writer) error {
	if !m.finite() {
		// encoding/json rejects NaN and ±Inf with an *UnsupportedValueError.
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}
	_, err := w.Write(m.appendIndented(make([]byte, 0, 512+64*len(m.Metrics)+256*len(m.Cells))))
	return err
}

// finite reports whether every float of the manifest has a JSON form.
func (m *Manifest) finite() bool {
	if math.IsNaN(m.WallSeconds) || math.IsInf(m.WallSeconds, 0) {
		return false
	}
	for _, v := range m.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// appendIndented appends Encode's bytes for a finite manifest to b.
func (m *Manifest) appendIndented(b []byte) []byte {
	b = strconv.AppendInt(append(b, "{\n  \"version\": "...), int64(m.Version), 10)
	b = appendString(append(b, ",\n  \"kind\": "...), m.Kind)
	b = appendString(append(b, ",\n  \"figure\": "...), m.Figure)
	b = strconv.AppendInt(append(b, ",\n  \"ops\": "...), int64(m.Ops), 10)
	b = strconv.AppendInt(append(b, ",\n  \"warmup\": "...), int64(m.Warmup), 10)
	b = strconv.AppendInt(append(b, ",\n  \"seed\": "...), m.Seed, 10)

	b = append(b, ",\n  \"apps\": "...)
	switch {
	case m.Apps == nil:
		b = append(b, "null"...)
	case len(m.Apps) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, app := range m.Apps {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, "\n    "...), app)
		}
		b = append(b, "\n  ]"...)
	}
	b = appendObject(append(b, ",\n  \"workload_fingerprints\": "...), m.Workloads, appendString)
	b = appendObject(append(b, ",\n  \"metrics\": "...), m.Metrics, appendFloat)

	if len(m.Cells) > 0 {
		b = append(b, ",\n  \"cells\": ["...)
		for i, c := range m.Cells {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, "\n    {\n      \"key\": "...), c.Key)
			b = appendString(append(b, ",\n      \"model\": "...), c.Model)
			b = appendString(append(b, ",\n      \"workload\": "...), c.Workload)
			b = appendString(append(b, ",\n      \"spec_fingerprint\": "...), c.SpecFP)
			b = appendString(append(b, ",\n      \"trace_fingerprint\": "...), c.TraceFP)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}

	b = appendFloat(append(b, ",\n  \"wall_seconds\": "...), m.WallSeconds)
	b = strconv.AppendUint(append(b, ",\n  \"alloc_bytes\": "...), m.AllocBytes, 10)
	b = appendString(append(b, ",\n  \"go_version\": "...), m.GoVersion)
	return append(b, "\n}\n"...)
}

// appendObject appends a map as an indented JSON object one level below
// the top, keys sorted.
func appendObject[V any](b []byte, obj map[string]V, appendValue func([]byte, V) []byte) []byte {
	switch {
	case obj == nil:
		return append(b, "null"...)
	case len(obj) == 0:
		return append(b, "{}"...)
	}
	b = append(b, '{')
	for i, k := range sortedKeys(obj) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, "\n    "...), k)
		b = appendValue(append(b, ": "...), obj[k])
	}
	return append(b, "\n  }"...)
}

// appendFloat formats a finite float as encoding/json does: the shortest
// 'f' form, or, when |f| < 1e-6 or |f| >= 1e21, the shortest 'e' form
// with a negative exponent's leading zero dropped (1e-07 becomes 1e-7).
func appendFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendString appends s as a JSON string. Printable ASCII without a
// quote, backslash or HTML-special character is written as is; any other
// string takes encoding/json's escaping (HTML-safe, invalid UTF-8 as
// U+FFFD).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// ReadFile loads a manifest from path.
func ReadFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

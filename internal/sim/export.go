package sim

import (
	"encoding/json"
	"fmt"
	"io"
)

// SuiteResult is the machine-readable form of one experiment suite run:
// the raw per-app results for every spec, keyed by model label. Written by
// ExportJSON for downstream plotting/diffing.
type SuiteResult struct {
	Figure  string              `json:"figure"`
	Options Options             `json:"options"`
	Results map[string][]Result `json:"results"` // app -> per-spec results
	Labels  []string            `json:"labels"`  // spec labels, same order
}

// RunSuiteJSON executes the figure's underlying run matrix and returns the
// raw results for external consumption (plotting scripts, regression
// diffing). Supported figures: fig2, fig6 (the per-app IPC suites); the
// spec columns are the same suite definitions the figure tables render.
func RunSuiteJSON(fig string, o Options) (*SuiteResult, error) {
	f, ok := lookupFigure(fig)
	if !ok || f.suite == nil {
		return nil, fmt.Errorf("sim: no JSON suite for figure %s (supported: fig2, fig6)", fig)
	}
	res, err := runMatrix(o, f.suite.mk)
	if err != nil {
		return nil, err
	}
	return &SuiteResult{Figure: f.id, Options: o, Results: res, Labels: f.suite.labels}, nil
}

// ExportJSON writes the suite result as indented JSON.
func (s *SuiteResult) ExportJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

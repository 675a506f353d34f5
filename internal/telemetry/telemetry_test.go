package telemetry

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestExpositionRendering pins the exact text for each instrument kind:
// HELP/TYPE pairs, family-then-series ordering, counter/gauge scalars,
// and the summary's quantile/_sum/_count expansion.
func TestExpositionRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("casino_cells_total", "Cells completed.").Add(7)
	r.Gauge("casino_queue_depth", "Jobs queued.").Set(2.5)
	s := r.Summary("casino_cell_ms", "Cell wall time.", 1000)
	s.Observe(10)
	s.Observe(20)
	s.Observe(30)

	got := render(t, r)
	want := `# HELP casino_cell_ms Cell wall time.
# TYPE casino_cell_ms summary
casino_cell_ms{quantile="0.5"} 20
casino_cell_ms{quantile="0.9"} 30
casino_cell_ms{quantile="0.99"} 30
casino_cell_ms_sum 60
casino_cell_ms_count 3
# HELP casino_cells_total Cells completed.
# TYPE casino_cells_total counter
casino_cells_total 7
# HELP casino_queue_depth Jobs queued.
# TYPE casino_queue_depth gauge
casino_queue_depth 2.5
`
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n, err := Lint(strings.NewReader(got)); err != nil || n != 7 {
		t.Errorf("Lint(own output) = %d series, %v", n, err)
	}
}

// TestLabeledSeries: one family, several label sets, rendered sorted and
// shared under a single TYPE line; get-or-create returns the same
// instrument for an existing label set.
func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total", "Requests by code.", Label{"code", "200"}).Add(3)
	r.Counter("http_requests_total", "Requests by code.", Label{"code", "404"}).Inc()
	r.Counter("http_requests_total", "Requests by code.", Label{"code", "200"}).Inc()

	got := render(t, r)
	want := `# HELP http_requests_total Requests by code.
# TYPE http_requests_total counter
http_requests_total{code="200"} 4
http_requests_total{code="404"} 1
`
	if got != want {
		t.Errorf("labeled exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabelEscaping: backslash, quote and newline in label values must
// round-trip through the escaper and satisfy the linter.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("weird", "Escapes.", Label{"path", `C:\dir "x"` + "\nnext"}).Set(1)
	got := render(t, r)
	if !strings.Contains(got, `weird{path="C:\\dir \"x\"\nnext"} 1`) {
		t.Errorf("escaping broken:\n%s", got)
	}
	if _, err := Lint(strings.NewReader(got)); err != nil {
		t.Errorf("Lint rejects escaped output: %v", err)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, bad := range []string{"", "9lead", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q accepted", bad)
				}
			}()
			NewRegistry().Counter(bad, "")
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("reserved label name accepted")
		}
	}()
	NewRegistry().Counter("ok_total", "", Label{"__reserved", "v"})
}

// TestGoRuntimeFamily: the runtime collectors render, lint cleanly, and
// carry the expected series.
func TestGoRuntimeFamily(t *testing.T) {
	r := NewRegistry()
	r.RegisterGoRuntime()
	got := render(t, r)
	for _, want := range []string{
		"go_goroutines ", "go_memstats_heap_alloc_bytes ",
		"go_memstats_alloc_bytes_total ", "go_gc_cycles_total ",
		`go_info{version="go`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("runtime exposition missing %q:\n%s", want, got)
		}
	}
	if _, err := Lint(strings.NewReader(got)); err != nil {
		t.Errorf("Lint(runtime family): %v", err)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "a_total 1") {
		t.Errorf("handler body: %s", rec.Body.String())
	}
}

// TestSummaryOverflow: observations beyond the bucket range clamp the
// quantiles to the range bound but keep _sum exact.
func TestSummaryOverflow(t *testing.T) {
	s := NewSummary(10)
	s.Observe(5)
	s.Observe(500)
	count, sum, _, _, p99 := s.snapshot()
	if count != 2 || sum != 505 {
		t.Errorf("count,sum = %d,%v", count, sum)
	}
	if p99 != 10 {
		t.Errorf("p99 = %v, want overflow bound 10", p99)
	}
}

// TestRegisterWhileScraping creates new labelled series while another
// goroutine scrapes, as casino-server does when a request with a new
// status code lands mid-scrape. Every value source must be installed under
// the registry lock the scrape holds; `go test -race` catches a source
// set after the series is published.
func TestRegisterWhileScraping(t *testing.T) {
	r := NewRegistry()
	const n = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			code := Label{"code", strconv.Itoa(i)}
			r.Counter("requests_total", "Requests by code.", code).Inc()
			r.Gauge("inflight", "In flight by code.", code).Set(1)
			r.GaugeFunc("collected", "Collected by code.", func() float64 { return 2 }, code)
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := render(t, r)
	if series, err := Lint(strings.NewReader(got)); err != nil || series != 3*n {
		t.Errorf("Lint = %d series, %v; want %d", series, err, 3*n)
	}
}

package dse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"casino/internal/manifest"
	"casino/internal/sim"
	"casino/internal/telemetry"
)

// submitGrid posts a grid over HTTP and returns the accepted job id.
func submitGrid(t *testing.T, baseURL, grid string) SubmitResponse {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/sweeps", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, baseURL, statusURL string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	var st Status
	for {
		getJSON(t, baseURL+statusURL, http.StatusOK, &st)
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const gridTwoByTwo = `{"models":["casino","specino"],"workloads":["mcf"],"ops":1500,"warmup":300,"seed":1,"geometries":[[2,1],[4,2]]}`

// TestMetricsEndpoint: /metrics serves lint-clean Prometheus text with
// the full instrument inventory, and the work counters move after a
// sweep completes.
func TestMetricsEndpoint(t *testing.T) {
	e := NewEngine(2, 0)
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("Content-Type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	cold := scrape()
	n, err := telemetry.Lint(strings.NewReader(cold))
	if err != nil {
		t.Fatalf("cold scrape fails lint: %v", err)
	}
	if n < 10 {
		t.Errorf("cold scrape has %d series, want >= 10", n)
	}
	for _, want := range []string{
		"casino_cell_wall_time_ms", "casino_engine_queue_depth",
		"casino_engine_workers ", "casino_engine_workers_busy",
		"casino_engine_worker_utilization", "casino_sweeps_submitted_total",
		`casino_sweeps_completed_total{state="done"}`,
		`casino_sweeps_completed_total{state="failed"}`,
		"casino_cells_completed_total", "casino_sampled_cells_total",
		"casino_promoted_cells_total", "casino_result_cache_entries",
		"casino_result_cache_hits_total", "casino_result_cache_misses_total",
		"casino_sim_cycles_total", "casino_sim_instructions_total",
		"casino_eventq_wakeups_total", "casino_eventq_coalesced_total",
		"casino_ff_skipped_cycles_total", "casino_cell_panics_total",
		"casino_http_request_ms", "go_goroutines",
	} {
		if !strings.Contains(cold, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	sub := submitGrid(t, ts.URL, gridTwoByTwo)
	waitDone(t, ts.URL, sub.StatusURL)

	warm := scrape()
	if _, err := telemetry.Lint(strings.NewReader(warm)); err != nil {
		t.Fatalf("post-sweep scrape fails lint: %v", err)
	}
	for _, want := range []string{
		"casino_cells_completed_total 4",
		`casino_sweeps_completed_total{state="done"} 1`,
		"casino_cell_wall_time_ms_count 4",
	} {
		if !strings.Contains(warm, want) {
			t.Errorf("post-sweep /metrics missing %q:\n%s", want, warm)
		}
	}
	if !strings.Contains(warm, "casino_http_requests_total{code=\"200\"}") {
		t.Errorf("post-sweep /metrics missing http request counter")
	}
}

// TestCellPanicsMetric: a cell whose run panics adds exactly one to
// casino_cell_panics_total.
func TestCellPanicsMetric(t *testing.T) {
	e := NewEngine(1, 0)
	defer e.Close()
	tel := NewTelemetry(e)
	panics := func() string {
		var b bytes.Buffer
		if err := tel.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "casino_cell_panics_total "); ok {
				return v
			}
		}
		t.Fatalf("no casino_cell_panics_total sample in:\n%s", b.String())
		return ""
	}
	before := panics()
	sim.RunCells([]sim.Cell{{App: "mcf", Model: "broken"}}, 1, func(sim.Cell) (sim.Result, error) {
		panic("model bug")
	}, nil)
	n, err := strconv.ParseUint(before, 10, 64)
	if err != nil {
		t.Fatalf("casino_cell_panics_total = %q: %v", before, err)
	}
	if after := panics(); after != strconv.FormatUint(n+1, 10) {
		t.Errorf("casino_cell_panics_total went from %s to %s, want +1", before, after)
	}
}

// TestReadyzLifecycle: ready while serving, 503 draining after Close —
// distinct from /healthz, which stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	e := NewEngine(1, 0)
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	// The dispatcher goroutine flips the ready gate; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never became ready (last %d)", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}

	e.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("/readyz after Close = %d %s, want 503 draining", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
}

// TestListSweeps: GET /v1/sweeps returns every accepted job in
// submission order with progress attached.
func TestListSweeps(t *testing.T) {
	e := NewEngine(2, 0)
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	var list ListResponse
	getJSON(t, ts.URL+"/v1/sweeps", http.StatusOK, &list)
	if len(list.Sweeps) != 0 {
		t.Fatalf("fresh engine lists %d sweeps", len(list.Sweeps))
	}

	small := `{"models":["ino"],"workloads":["mcf"],"ops":1500,"warmup":300}`
	first := submitGrid(t, ts.URL, small)
	second := submitGrid(t, ts.URL, gridTwoByTwo)
	waitDone(t, ts.URL, first.StatusURL)
	waitDone(t, ts.URL, second.StatusURL)

	getJSON(t, ts.URL+"/v1/sweeps", http.StatusOK, &list)
	if len(list.Sweeps) != 2 {
		t.Fatalf("list has %d sweeps, want 2", len(list.Sweeps))
	}
	if list.Sweeps[0].ID != first.ID || list.Sweeps[1].ID != second.ID {
		t.Errorf("list order %s, %s; want %s, %s", list.Sweeps[0].ID, list.Sweeps[1].ID, first.ID, second.ID)
	}
	if got := list.Sweeps[1]; got.State != StateDone || got.CellsDone != got.CellsTotal {
		t.Errorf("completed sweep listed as %+v", got)
	}
}

// TestProgressMonotonic: the /progress endpoint's done count never
// regresses, its ETA is never negative, and the terminal snapshot
// reports done == total with a frozen elapsed time.
func TestProgressMonotonic(t *testing.T) {
	e := NewEngine(2, 0)
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	sub := submitGrid(t, ts.URL, gridTwoByTwo)
	url := ts.URL + sub.StatusURL + "/progress"
	lastDone := -1
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var p Progress
		getJSON(t, url, http.StatusOK, &p)
		if p.CellsDone < lastDone {
			t.Fatalf("cells_done regressed: %d -> %d", lastDone, p.CellsDone)
		}
		lastDone = p.CellsDone
		if p.ETASeconds < 0 || p.ElapsedSeconds < 0 || p.CellMsEWMA < 0 {
			t.Fatalf("negative pacing signal: %+v", p)
		}
		if p.CellsDone > p.CellsTotal {
			t.Fatalf("done %d > total %d", p.CellsDone, p.CellsTotal)
		}
		if p.Terminal() {
			if p.State != StateDone || p.CellsDone != p.CellsTotal {
				t.Fatalf("bad terminal snapshot: %+v", p)
			}
			if p.ETASeconds != 0 {
				t.Errorf("terminal ETA = %v, want 0", p.ETASeconds)
			}
			if p.ElapsedSeconds <= 0 || p.CellMsEWMA <= 0 {
				t.Errorf("terminal pacing not recorded: %+v", p)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", p)
		}
	}
}

// readSSE consumes one SSE stream to completion, returning the ordered
// (event, payload) pairs.
type sseEvent struct {
	name string
	p    Progress
}

func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	name := ""
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var p Progress
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			events = append(events, sseEvent{name: name, p: p})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE stream: %v", err)
	}
	return events
}

// TestSSEStream: subscribe, run a 2×2 grid, and assert the stream
// delivers monotonic progress events and ends with exactly one terminal
// "done" event.
func TestSSEStream(t *testing.T) {
	e := NewEngine(2, 0)
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	// The dispatcher runs jobs serially: a heavier blocker job submitted
	// first holds the target job in the queue, guaranteeing the stream
	// attaches before the target turns terminal — so the subscription
	// observes the queued → running → done trajectory, not just the
	// late-subscriber terminal snapshot.
	blocker := `{"models":["casino","specino"],"workloads":["mcf"],"ops":60000,"warmup":15000,"seed":1,"geometries":[[2,1],[4,2],[8,4]]}`
	submitGrid(t, ts.URL, blocker)
	sub := submitGrid(t, ts.URL, gridTwoByTwo)
	resp, err := http.Get(ts.URL + sub.StatusURL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}

	events := readSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want initial snapshot + terminal at least", len(events))
	}
	lastDone := -1
	for i, ev := range events {
		if ev.p.ID != sub.ID {
			t.Errorf("event %d for job %s, want %s", i, ev.p.ID, sub.ID)
		}
		if ev.p.CellsDone < lastDone {
			t.Errorf("event %d regressed cells_done %d -> %d", i, lastDone, ev.p.CellsDone)
		}
		lastDone = ev.p.CellsDone
		terminal := i == len(events)-1
		if wantName := map[bool]string{true: "done", false: "progress"}[terminal]; ev.name != wantName {
			t.Errorf("event %d named %q, want %q", i, ev.name, wantName)
		}
		if ev.p.Terminal() != terminal {
			t.Errorf("event %d terminal=%v at position %d/%d", i, ev.p.Terminal(), i, len(events)-1)
		}
	}
	final := events[len(events)-1].p
	if final.State != StateDone || final.CellsDone != 4 || final.CellsTotal != 4 {
		t.Errorf("terminal event %+v", final)
	}

	// A late subscriber to the finished job gets the terminal snapshot
	// immediately and a closed stream.
	resp2, err := http.Get(ts.URL + sub.StatusURL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late := readSSE(t, resp2.Body)
	resp2.Body.Close()
	if len(late) != 1 || late[0].name != "done" || !late[0].p.Terminal() {
		t.Errorf("late subscription got %+v, want single done event", late)
	}
}

// TestEngineCloseTerminatesSubscribers: every subscriber attached when
// Close begins still receives its job's terminal snapshot and a closed
// channel — draining must not strand an SSE stream. Exercised with
// concurrent subscribers per job under -race in CI.
func TestEngineCloseTerminatesSubscribers(t *testing.T) {
	e := NewEngine(2, 0)
	g, err := ReadGrid(strings.NewReader(gridTwoByTwo))
	if err != nil {
		t.Fatal(err)
	}
	jobA, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ReadGrid(strings.NewReader(`{"models":["ino"],"workloads":["mcf"],"ops":1500,"warmup":300}`))
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := e.Submit(small)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, id := range []string{jobA.ID, jobB.ID, jobA.ID, jobB.ID} {
		ch, cancel, ok := e.Subscribe(id)
		if !ok {
			t.Fatalf("subscribe %s failed", id)
		}
		wg.Add(1)
		go func(id string, ch <-chan Progress, cancel func()) {
			defer wg.Done()
			defer cancel()
			var last Progress
			n := 0
			for p := range ch {
				last = p
				n++
			}
			if n == 0 || !last.Terminal() {
				errs <- fmt.Errorf("subscriber of %s: %d events, last %+v (not terminal)", id, n, last)
			}
		}(id, ch, cancel)
	}

	e.Close() // drains both jobs; subscribers must all see terminal events
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := jobA.Snapshot(); st.State != StateDone {
		t.Errorf("jobA state %s after drain", st.State)
	}
	if st := jobB.Snapshot(); st.State != StateDone {
		t.Errorf("jobB state %s after drain", st.State)
	}
}

// TestSubscribeCancelIsIdempotent: cancel after terminal close and
// double cancel must both be safe.
func TestSubscribeCancelIsIdempotent(t *testing.T) {
	e := NewEngine(1, 0)
	defer e.Close()
	g, err := ReadGrid(strings.NewReader(`{"models":["ino"],"workloads":["mcf"],"ops":1500,"warmup":300}`))
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := e.Subscribe(job.ID)
	for range ch {
	}
	cancel()
	cancel()
	// Early cancel on a second subscription while the job may be live.
	_, cancel2, _ := e.Subscribe(job.ID)
	cancel2()
	cancel2()
}

// TestTelemetryManifestUnperturbed: hammering /metrics (and /progress)
// while a sweep runs must leave the merged sweep manifest byte-identical
// to a cold serial run of the same grid — telemetry lives strictly
// outside the manifest path.
func TestTelemetryManifestUnperturbed(t *testing.T) {
	g, err := ReadGrid(strings.NewReader(gridTwoByTwo))
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := RunGrid(g, 1)
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(4, 0)
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				if _, lerr := telemetry.Lint(resp.Body); lerr != nil {
					t.Errorf("mid-sweep scrape fails lint: %v", lerr)
				}
				resp.Body.Close()
				n++
			}
		}
	}()

	sub := submitGrid(t, ts.URL, gridTwoByTwo)
	waitDone(t, ts.URL, sub.StatusURL)
	close(stop)
	if n := <-scraped; n == 0 {
		t.Error("scrape loop never completed a scrape")
	}

	mresp, err := http.Get(ts.URL + sub.StatusURL + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	served, err := manifest.Decode(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeManifest(t, serial), encodeManifest(t, served)) {
		t.Error("manifest differs from cold serial run after mid-sweep /metrics scraping")
	}
}

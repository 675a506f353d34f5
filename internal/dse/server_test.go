package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"casino/internal/manifest"
)

func getJSON(t *testing.T, url string, wantCode int, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v in %s", url, err, body)
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	e := NewEngine(4, 0)
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)

	// Submit a grid over HTTP.
	grid := `{"models":["ino","casino"],"workloads":["mcf"],"ops":1500,"warmup":300,"seed":1,"geometries":[[2,1],[4,2]]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Cells != 3 || sub.ID == "" {
		t.Fatalf("submit response: %+v", sub)
	}

	// Poll progress to completion.
	var st Status
	deadline := time.Now().Add(2 * time.Minute)
	for {
		getJSON(t, ts.URL+sub.StatusURL, http.StatusOK, &st)
		if st.State == StateDone || st.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != StateDone || st.CellsDone != 3 {
		t.Fatalf("sweep did not complete: %+v", st)
	}

	// Fetch the merged manifest and compare it against a serial run.
	mresp, err := http.Get(ts.URL + sub.StatusURL + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	served, err := manifest.Decode(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadGrid(strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := RunGrid(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := manifest.Compare(serial, served, manifest.CompareOptions{
		Default: manifest.Tolerance{Rel: 0, Abs: 1e-300},
	}); len(diffs) != 0 {
		t.Errorf("served manifest drifts from serial: %v", diffs)
	}
	if !bytes.Equal(encodeManifest(t, serial), encodeManifest(t, served)) {
		t.Error("served manifest not byte-identical to serial run")
	}

	// Pareto frontier: every workload present, points ordered by IPC.
	var par ParetoResponse
	getJSON(t, ts.URL+sub.StatusURL+"/pareto", http.StatusOK, &par)
	pts := par.Workloads["mcf"]
	if len(pts) == 0 {
		t.Fatal("empty pareto frontier")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].IPC < pts[i-1].IPC {
			t.Errorf("frontier not sorted by IPC: %+v", pts)
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	e := NewEngine(1, 0)
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()

	// Malformed and invalid grids: 400.
	for _, body := range []string{
		`{not json`,
		`{"models":["nope"],"workloads":["mcf"]}`,
		`{"models":["ino"],"workloads":["mcf"],"typo":1}`,
		`{"models":["specino"],"workloads":["mcf"],"iq_sizes":[100]}`,
		`{"models":["ino"],"workloads":["mcf"],"ops":4000000000}`,
		`{"models":["ino","ooo"],"workloads":["mcf"],"iq_sizes":` + sizesJSON(100) + `,"sb_sizes":` + sizesJSON(60) + `}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q = %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown job: 404 everywhere.
	for _, p := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/manifest", "/v1/sweeps/nope/pareto"} {
		getJSON(t, ts.URL+p, http.StatusNotFound, nil)
	}

	// Manifest/pareto before completion: 409. A hand-planted running job
	// keeps this deterministic (no race against the worker pool).
	job := &Job{ID: "sweep-running", state: StateRunning}
	e.mu.Lock()
	e.jobs[job.ID] = job
	e.mu.Unlock()
	getJSON(t, ts.URL+"/v1/sweeps/sweep-running/manifest", http.StatusConflict, nil)
	getJSON(t, ts.URL+"/v1/sweeps/sweep-running/pareto", http.StatusConflict, nil)
	getJSON(t, ts.URL+"/v1/sweeps/sweep-running", http.StatusOK, nil)
}

func TestServerRejectsWhenDraining(t *testing.T) {
	e := NewEngine(1, 0)
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()
	e.Close()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"models":["ino"],"workloads":["mcf"],"ops":1500,"warmup":300}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d (%s), want 503", resp.StatusCode, body)
	}
}

func TestSubmitResponseStatusURLRoundTrips(t *testing.T) {
	e := NewEngine(1, 0)
	defer e.Close()
	ts := httptest.NewServer(NewServer(e))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"models":["ino"],"workloads":["mcf"],"ops":1500,"warmup":300}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := fmt.Sprintf("/v1/sweeps/%s", sub.ID); sub.StatusURL != want {
		t.Errorf("status_url = %q, want %q", sub.StatusURL, want)
	}
	getJSON(t, ts.URL+sub.StatusURL, http.StatusOK, nil)
}

// sizesJSON is a JSON array of 1..n.
func sizesJSON(n int) string {
	b, _ := json.Marshal(sizes(n))
	return string(b)
}

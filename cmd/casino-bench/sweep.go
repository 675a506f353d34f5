package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"casino/internal/dse"
	"casino/internal/manifest"
)

// runSweep executes a sweep grid locally ("sweep" subcommand): the exact
// cells a casino-server job shards, run on an in-process pool (-workers 1
// is strictly serial). It is the gating reference: the written manifest
// must be byte-identical to the service's for the same grid.
func runSweep(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		gridPath  = fs.String("grid", "", "sweep grid JSON file (required)")
		jsonOut   = fs.String("json", "", "write the merged sweep manifest to this file (required)")
		workers   = fs.Int("workers", 1, "worker pool size (1 = strictly serial, 0 = all CPUs)")
		paretoOut = fs.String("pareto", "", "also write the per-workload Pareto frontiers as JSON to this file")
		progress  = fs.Bool("progress", false, "render a live cells-done/ETA progress line on stderr")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: casino-bench sweep -grid grid.json -json out.json [-workers N] [-pareto pareto.json] [-progress]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *gridPath == "" || *jsonOut == "" {
		fs.Usage()
		return 2
	}
	g, err := dse.ReadGridFile(*gridPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "casino-bench sweep: %v\n", err)
		return 2
	}
	start := time.Now()
	var onCell func(done, total int)
	if *progress {
		onCell = func(done, total int) {
			// Observed throughput so far forecasts the remainder; the
			// pool's parallelism is baked into the elapsed/done rate.
			eta := time.Since(start).Seconds() / float64(done) * float64(total-done)
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells (%d%%) · ETA %s   ",
				done, total, 100*done/total, fmtETA(eta))
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	m, points, _, err := dse.RunGridStats(g, *workers, onCell)
	if err != nil {
		fmt.Fprintf(os.Stderr, "casino-bench sweep: %v\n", err)
		return 1
	}
	if err := m.WriteFile(*jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "casino-bench sweep: %v\n", err)
		return 1
	}
	fmt.Printf("sweep: %d cells (%d workers, %.1fs), wrote %s\n",
		len(m.Cells), *workers, time.Since(start).Seconds(), *jsonOut)
	if *paretoOut != "" {
		if err := writePareto(*paretoOut, dse.FrontierByWorkload(points)); err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench sweep: %v\n", err)
			return 1
		}
		fmt.Printf("sweep: wrote Pareto frontiers to %s\n", *paretoOut)
	}
	return 0
}

func writePareto(path string, frontiers map[string][]dse.Point) error {
	b, err := json.MarshalIndent(map[string]interface{}{"workloads": frontiers}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSubmit posts a sweep grid to a running casino-server, polls the job
// to completion, and downloads the merged manifest ("submit" subcommand).
func runSubmit(args []string) int {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		server    = fs.String("server", "http://127.0.0.1:8573", "casino-server base URL")
		gridPath  = fs.String("grid", "", "sweep grid JSON file (required)")
		out       = fs.String("out", "", "write the merged sweep manifest to this file")
		paretoOut = fs.String("pareto", "", "write the per-workload Pareto frontiers to this file")
		poll      = fs.Duration("poll", 250*time.Millisecond, "progress polling interval")
		timeout   = fs.Duration("timeout", 15*time.Minute, "overall deadline")
		progress  = fs.Bool("progress", false, "stream the server's SSE progress events and render a live TTY line (falls back to polling)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: casino-bench submit -server URL -grid grid.json [-out merged.json] [-pareto pareto.json] [-progress]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if *gridPath == "" {
		fs.Usage()
		return 2
	}
	gridBytes, err := os.ReadFile(*gridPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "casino-bench submit: %v\n", err)
		return 2
	}

	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(*server+"/v1/sweeps", "application/json", bytes.NewReader(gridBytes))
	if err != nil {
		fmt.Fprintf(os.Stderr, "casino-bench submit: %v\n", err)
		return 1
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		fmt.Fprintf(os.Stderr, "casino-bench submit: server rejected sweep (%s): %s\n", resp.Status, body)
		return 1
	}
	var sub dse.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		fmt.Fprintf(os.Stderr, "casino-bench submit: bad submit response: %v\n", err)
		return 1
	}
	fmt.Printf("submitted sweep %s (%d cells) to %s\n", sub.ID, sub.Cells, *server)

	statusURL := *server + sub.StatusURL
	deadline := time.Now().Add(*timeout)
	var st dse.Status
	settled := false
	if *progress {
		// Prefer the server's SSE stream; on any stream error fall back
		// to the polling loop below so -progress never loses a sweep.
		final, err := streamProgress(*server, sub.StatusURL, *timeout)
		if err == nil {
			st, settled = final.Status, true
		} else {
			fmt.Fprintf(os.Stderr, "casino-bench submit: SSE stream unavailable (%v), polling instead\n", err)
		}
	}
	for lastDone := -1; !settled; {
		if err := getJSON(client, statusURL, &st); err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench submit: poll: %v\n", err)
			return 1
		}
		if st.State == dse.StateDone || st.State == dse.StateFailed {
			break
		}
		if st.CellsDone != lastDone {
			lastDone = st.CellsDone
			fmt.Printf("sweep %s: %s, %d/%d cells, %d cache hits\n",
				st.ID, st.State, st.CellsDone, st.CellsTotal, st.CacheHits)
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "casino-bench submit: timed out after %v (%d/%d cells)\n",
				*timeout, st.CellsDone, st.CellsTotal)
			return 1
		}
		time.Sleep(*poll)
	}
	if st.State == dse.StateFailed {
		fmt.Fprintf(os.Stderr, "casino-bench submit: sweep %s failed:\n", st.ID)
		for _, e := range st.Errors {
			fmt.Fprintf(os.Stderr, "  %s\n", e)
		}
		return 1
	}
	fmt.Printf("sweep %s: done, %d/%d cells, %d cache hits\n", st.ID, st.CellsDone, st.CellsTotal, st.CacheHits)

	if *out != "" {
		mresp, err := client.Get(statusURL + "/manifest")
		if err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench submit: manifest: %v\n", err)
			return 1
		}
		m, err := manifest.Decode(mresp.Body)
		mresp.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench submit: manifest: %v\n", err)
			return 1
		}
		if err := m.WriteFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench submit: %v\n", err)
			return 1
		}
		fmt.Printf("wrote merged manifest (%d cells, %d metrics) to %s\n", len(m.Cells), len(m.Metrics), *out)
	}
	if *paretoOut != "" {
		presp, err := client.Get(statusURL + "/pareto")
		if err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench submit: pareto: %v\n", err)
			return 1
		}
		pbody, _ := io.ReadAll(presp.Body)
		presp.Body.Close()
		if presp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "casino-bench submit: pareto: %s: %s\n", presp.Status, pbody)
			return 1
		}
		if err := os.WriteFile(*paretoOut, pbody, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "casino-bench submit: %v\n", err)
			return 1
		}
		fmt.Printf("wrote Pareto frontiers to %s\n", *paretoOut)
	}
	return 0
}

// streamProgress consumes GET {base}{statusURL}/events — the server's
// Server-Sent-Events progress stream — rendering a live TTY progress
// line on stderr, and returns the terminal snapshot delivered by the
// "done" event. Any transport or protocol error aborts the stream so the
// caller can fall back to polling.
func streamProgress(base, statusURL string, timeout time.Duration) (dse.Progress, error) {
	// No per-request timeout: the stream lives as long as the sweep. The
	// overall -timeout deadline still applies through the request context.
	req, err := http.NewRequest(http.MethodGet, base+statusURL+"/events", nil)
	if err != nil {
		return dse.Progress{}, err
	}
	ctx, cancelCtx := context.WithTimeout(req.Context(), timeout)
	defer cancelCtx()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		return dse.Progress{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return dse.Progress{}, fmt.Errorf("%s: %s", resp.Status, body)
	}

	var p dse.Progress
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
				return dse.Progress{}, fmt.Errorf("bad SSE payload: %w", err)
			}
		case line == "": // event boundary: render the snapshot
			pct := 0
			if p.CellsTotal > 0 {
				pct = 100 * p.CellsDone / p.CellsTotal
			}
			fmt.Fprintf(os.Stderr, "\rsweep %s: %s %d/%d cells (%d%%) · %d hits · ETA %s   ",
				p.ID, p.State, p.CellsDone, p.CellsTotal, pct, p.CacheHits, fmtETA(p.ETASeconds))
			if event == "done" {
				fmt.Fprintln(os.Stderr)
				return p, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return dse.Progress{}, err
	}
	return dse.Progress{}, fmt.Errorf("stream ended without a terminal event")
}

// fmtETA renders an ETA forecast compactly; sub-cell-one forecasts (no
// estimate yet) show as a placeholder.
func fmtETA(seconds float64) string {
	if seconds <= 0 {
		return "--"
	}
	d := time.Duration(seconds * float64(time.Second))
	if d >= time.Minute {
		return d.Round(time.Second).String()
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}

func getJSON(client *http.Client, url string, v interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

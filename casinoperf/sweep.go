package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"casino/internal/dse"
	"casino/internal/manifest"
	"casino/internal/sim"
)

// plannedSweep is one sweep of the session, with the cache hits it must
// report: the cells earlier sweeps of the session already ran.
type plannedSweep struct {
	grid     dse.Grid
	wantHits int
}

// session is the sequence of sweeps the repository's own documentation
// sends to casino-server, in its order, at the given size (60000/15000 in
// the documentation) and seed:
//
//  1. EXPERIMENTS.md's Fig. 6 geometry grid (ino, specino, casino, ooo ×
//     mcf, milc, libquantum, hmmer, h264ref × 5 geometries: 60 cells).
//  2. The same grid again, watched with -progress ("Watching a sweep").
//  3. The grid widened by geometry [8,8] ("Overlap is free": 70 cells).
//  4. README.md's session grid (casino, specino × mcf, milc × [2,1], [4,2],
//     [8,4]: 12 cells) ...
//  5. ... and its resubmission through `casino-bench submit`.
//  6. CI's server-job grid (casino, specino × mcf × [2,1], [4,2]: 4 cells)
//     at a third of the size (20000/5000 in the documentation) ...
//  7. ... and its resubmission, which must be served from the cache.
//
// Each sweep's expected cache hits are the cells earlier sweeps ran.
func session(ops, warmup int, seed int64) []plannedSweep {
	fig6 := dse.Grid{
		Models:    []string{sim.ModelInO, sim.ModelSpecInO, sim.ModelCASINO, sim.ModelOoO},
		Workloads: []string{"mcf", "milc", "libquantum", "hmmer", "h264ref"},
		Ops:       ops, Warmup: warmup, Seed: seed,
		Geometries: [][2]int{{2, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}},
	}
	wide := fig6
	wide.Geometries = append(append([][2]int(nil), fig6.Geometries...), [2]int{8, 8})
	readme := dse.Grid{
		Models: []string{sim.ModelCASINO, sim.ModelSpecInO}, Workloads: []string{"mcf", "milc"},
		Ops: ops, Warmup: warmup, Seed: seed, Geometries: [][2]int{{2, 1}, {4, 2}, {8, 4}},
	}
	ci := dse.Grid{
		Models: []string{sim.ModelCASINO, sim.ModelSpecInO}, Workloads: []string{"mcf"},
		Ops: ops / 3, Warmup: warmup / 3, Seed: seed, Geometries: [][2]int{{2, 1}, {4, 2}},
	}
	var plan []plannedSweep
	seen := map[uint64]bool{} // the server caches by spec (and trace) fingerprint
	for _, g := range []dse.Grid{fig6, fig6, wide, readme, readme, ci, ci} {
		cells, _ := g.Expand()
		ps := plannedSweep{grid: g}
		for _, cell := range cells {
			fp := cell.SpecFingerprint()
			if seen[fp] {
				ps.wantHits++
			}
			seen[fp] = true
		}
		plan = append(plan, ps)
	}
	return plan
}

// sessionApps are the workloads the session's grids use.
func sessionApps(plan []plannedSweep) []string {
	var apps []string
	seen := map[string]bool{}
	for _, ps := range plan {
		for _, w := range ps.grid.Workloads {
			if !seen[w] {
				seen[w] = true
				apps = append(apps, w)
			}
		}
	}
	return apps
}

// sweepRecord is what the client saw for one sweep.
type sweepRecord struct {
	grid     dse.Grid
	id       string
	manifest []byte
	pareto   []byte
	hits     int
}

// sweepService drives casino-server over HTTP: a fresh server per repeat
// and one client that sends the documented session with no think time.
// One operation is one sweep, timed from POST to the Pareto front
// received; after each, the client scrapes /metrics as CI does.
type sweepService struct {
	bin     string
	workers int
	seed    int64
	ops     int
	warmup  int
	plan    []plannedSweep

	srv   *server
	base  promSample // scrape taken when set-up finished
	first []sweepRecord
	layer map[string][]float64 // dse.* samples, one per repeat
}

func newSweepService(cfg config) *sweepService {
	return &sweepService{
		bin: cfg.serverBin, workers: cfg.workers, seed: cfg.seed,
		ops: cfg.size.ops, warmup: cfg.size.warmup, layer: map[string][]float64{},
		plan: session(cfg.size.ops, cfg.size.warmup, cfg.seed),
	}
}

// setup generates the session's main traces in process (the reference
// runs of check replay them), starts a server and waits until /readyz says
// ready. The server generates its own traces during the first sweep, as it
// does for a user.
func (s *sweepService) setup(b *bench, parent int) error {
	if s.bin == "" {
		return errors.New("sweep-service needs -server-bin")
	}
	if err := genTraces(b, parent, sessionApps(s.plan), s.ops+s.warmup, s.seed); err != nil {
		return err
	}
	srv, err := startServer(s.bin, s.workers, b.spans != nil)
	if err != nil {
		return err
	}
	if s.base, err = srv.scrape(); err != nil {
		srv.stop()
		return err
	}
	s.srv = srv
	return nil
}

// repeat sends the session to the server setup started, then stops it.
func (s *sweepService) repeat(b *bench, parent int) (rep, error) {
	srv := s.srv
	defer func() {
		if err := srv.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "casinoperf: stop server: %v\n", err)
		}
	}()
	var profErr chan error
	if b.spans != nil && b.profile != "" {
		// Profile the server from here until the session has surely ended.
		secs := int(b.expectWall.Seconds()) + 2
		profErr = make(chan error, 1)
		go func() { profErr <- srv.profile(b.profile, secs) }()
	}

	var (
		lats    []float64
		records []sweepRecord
		errs    []error
	)
	t0 := time.Now()
	for _, ps := range s.plan {
		rec, lat, err := s.timedSweep(b, srv, ps, parent)
		if err == nil {
			id := b.spans.start("scrape", parent)
			_, err = srv.scrape()
			b.spans.end(id)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		lats = append(lats, lat)
		records = append(records, rec)
	}
	wall := time.Since(t0)

	r := rep{wall: wall, ops: lats, failed: len(errs)}
	end, err := srv.scrape()
	if err != nil {
		return r, err
	}
	r.rssMB, err = peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return r, err
	}
	if profErr != nil {
		if err := <-profErr; err != nil {
			return r, fmt.Errorf("server profile: %w", err)
		}
	}
	d := func(name string) float64 { return end[name] - s.base[name] }
	r.simCycles = uint64(d("casino_sim_cycles_total"))
	r.allocMB = d("go_memstats_alloc_bytes_total") / (1 << 20)
	r.gcCycles = uint64(d("go_gc_cycles_total"))
	hits, misses := d("casino_result_cache_hits_total"), d("casino_result_cache_misses_total")
	s.layer["dse.cache_hit_frac"] = append(s.layer["dse.cache_hit_frac"], hits/(hits+misses))
	s.layer["dse.cells_simulated"] = append(s.layer["dse.cells_simulated"], misses)
	s.layer["dse.cell_ms_p50"] = append(s.layer["dse.cell_ms_p50"], end[`casino_cell_wall_time_ms{quantile="0.5"}`])
	s.layer["dse.cell_ms_p99"] = append(s.layer["dse.cell_ms_p99"], end[`casino_cell_wall_time_ms{quantile="0.99"}`])
	busy := d("casino_cell_wall_time_ms_sum") / (float64(s.workers) * float64(wall) / float64(time.Millisecond))
	s.layer["dse.workers_busy_frac"] = append(s.layer["dse.workers_busy_frac"], busy)
	if len(errs) > 0 {
		return r, fmt.Errorf("%d sweep(s) failed, first: %w", len(errs), errs[0])
	}

	r.digest = sweepDigest(records)
	if s.first == nil {
		s.first = pickCrossChecks(records)
	}
	return r, nil
}

// timedSweep sends one planned sweep and checks the cache hits it reports.
func (s *sweepService) timedSweep(b *bench, srv *server, ps plannedSweep, parent int) (sweepRecord, float64, error) {
	t0 := time.Now()
	rec, err := runSweep(b, srv, ps.grid, parent)
	lat := msSince(t0)
	if err == nil && rec.hits != ps.wantHits {
		err = fmt.Errorf("sweep %s reported %d cache hits, want %d", rec.id, rec.hits, ps.wantHits)
	}
	return rec, lat, err
}

// runSweep posts a grid, follows its event stream to the done event, and
// fetches the merged manifest and the Pareto front.
func runSweep(b *bench, srv *server, g dse.Grid, parent int) (sweepRecord, error) {
	c, base := srv.client, srv.base
	id := b.spans.start("sweep", parent)
	defer b.spans.end(id)
	rec := sweepRecord{grid: g}

	sp := b.spans.start("submit", id)
	body, err := json.Marshal(g)
	if err == nil {
		body, err = call(c, http.MethodPost, base+"/v1/sweeps", body, http.StatusAccepted)
	}
	var sub dse.SubmitResponse
	if err == nil {
		err = json.Unmarshal(body, &sub)
		rec.id = sub.ID
	}
	b.spans.end(sp)
	if err != nil {
		return rec, fmt.Errorf("submit: %w", err)
	}

	sp = b.spans.start("wait", id)
	final, err := waitDone(c, base+"/v1/sweeps/"+rec.id+"/events")
	b.spans.end(sp)
	if err == nil && final.State != dse.StateDone {
		err = fmt.Errorf("ended %s: %v", final.State, final.Errors)
	}
	if err != nil {
		return rec, fmt.Errorf("sweep %s: %w", rec.id, err)
	}
	rec.hits = final.CacheHits

	sp = b.spans.start("manifest", id)
	rec.manifest, err = get(c, base+"/v1/sweeps/"+rec.id+"/manifest")
	b.spans.end(sp)
	if err != nil {
		return rec, err
	}
	sp = b.spans.start("pareto", id)
	rec.pareto, err = get(c, base+"/v1/sweeps/"+rec.id+"/pareto")
	b.spans.end(sp)
	return rec, err
}

// check recomputes the first sweep, and the first that reported cache hits,
// in process and requires byte-identical manifests and Pareto fronts.
func (s *sweepService) check(b *bench, parent int) {
	b.emit("norm_ipc_mape", 0, "frac", 0) // full fidelity throughout
	for _, name := range sortedKeys(s.layer) {
		unit := "frac"
		switch {
		case strings.HasSuffix(name, "_ms_p50"), strings.HasSuffix(name, "_ms_p99"):
			unit = "ms"
		case name == "dse.cells_simulated":
			unit = "count"
		}
		b.emit(name, median(s.layer[name]), unit, len(s.layer[name]))
	}
	type outputs struct {
		m   *manifest.Manifest
		pts []dse.Point
		err error
	}
	ran := map[string]outputs{} // by grid: a resubmitted grid is run once
	for _, rec := range s.first {
		key := digest(rec.grid)
		o, ok := ran[key]
		if !ok {
			id := b.spans.start("reference", parent)
			o.m, o.pts, o.err = dse.RunGrid(rec.grid, 1)
			b.spans.end(id)
			ran[key] = o
		}
		if o.err != nil {
			b.gate("in-process sweep", o.err)
			continue
		}
		err := compareSweep(rec, o.m, dse.ParetoResponse{ID: rec.id, Workloads: dse.FrontierByWorkload(o.pts)})
		b.gate(fmt.Sprintf("sweep %s matches in-process run", rec.id), err)
	}
}

// compareSweep encodes the in-process outputs the way the server does and
// compares the bytes.
func compareSweep(rec sweepRecord, want *manifest.Manifest, pareto dse.ParetoResponse) error {
	var m, p bytes.Buffer
	if err := want.Encode(&m); err != nil {
		return err
	}
	enc := json.NewEncoder(&p)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pareto); err != nil {
		return err
	}
	if !bytes.Equal(m.Bytes(), rec.manifest) {
		return fmt.Errorf("manifest differs (%d bytes served, %d in process)", len(rec.manifest), m.Len())
	}
	if !bytes.Equal(p.Bytes(), rec.pareto) {
		return fmt.Errorf("pareto front differs (%d bytes served, %d in process)", len(rec.pareto), p.Len())
	}
	return nil
}

// pickCrossChecks returns the first sweep and the first that reported
// cache hits.
func pickCrossChecks(recs []sweepRecord) []sweepRecord {
	if len(recs) == 0 {
		return nil
	}
	out := []sweepRecord{recs[0]}
	for _, r := range recs[1:] {
		if r.hits > 0 {
			return append(out, r)
		}
	}
	return out
}

// sweepDigest hashes every sweep's outputs in session order. Every repeat
// has a fresh server, so sweep ids repeat too.
func sweepDigest(records []sweepRecord) string {
	var parts []any
	for _, r := range records {
		parts = append(parts, string(r.manifest), string(r.pareto), r.hits)
	}
	return digest(parts...)
}

// server is one casino-server process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client // at most two connections
	exited chan error
}

// startServer execs the server on a free loopback port and waits until
// /readyz returns 200.
func startServer(bin string, workers int, pprof bool) (*server, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", "127.0.0.1:" + port, "-workers", strconv.Itoa(workers), "-log-level", "warn"}
		if pprof {
			args = append(args, "-pprof")
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		s := &server{
			cmd:  cmd,
			base: "http://127.0.0.1:" + port,
			client: &http.Client{Transport: &http.Transport{
				Proxy: nil, MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
			}},
			exited: make(chan error, 1),
		}
		go func() { s.exited <- cmd.Wait() }()
		if last = s.waitReady(10 * time.Second); last == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, fmt.Errorf("casino-server never became ready: %w", last)
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case err := <-s.exited:
			s.exited <- err // keep it for stop
			return fmt.Errorf("exited: %v", err)
		default:
		}
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v (last error: %v)", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (the server drains and exits), kills it if it has not
// exited in ten seconds, and waits for it.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.exited:
		return err
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("killed after drain timeout")
	}
}

// profile fetches a CPU profile of the server over its own connection.
func (s *server) profile(path string, seconds int) error {
	c := &http.Client{Transport: &http.Transport{Proxy: nil}}
	defer c.CloseIdleConnections()
	body, err := get(c, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", s.base, seconds))
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// promSample maps "name{labels}" to the value of every series a /metrics
// scrape returned.
type promSample map[string]float64

func (s *server) scrape() (promSample, error) {
	body, err := get(s.client, s.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := promSample{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad /metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// waitDone reads a sweep's Server-Sent-Events stream up to its done event.
func waitDone(c *http.Client, url string) (final dse.Progress, err error) {
	resp, err := c.Get(url)
	if err != nil {
		return final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, fmt.Errorf("events: %s", resp.Status)
	}
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		data, isData := strings.CutPrefix(line, "data: ")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case isData && event == "done":
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				return final, fmt.Errorf("bad done event: %w", err)
			}
			io.Copy(io.Discard, resp.Body) // the server ends the stream after done
			return final, nil
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	return final, errors.New("event stream ended without a done event")
}

func get(c *http.Client, url string) ([]byte, error) {
	return call(c, http.MethodGet, url, nil, http.StatusOK)
}

// call sends one request and returns the response body, failing unless the
// status is want.
func call(c *http.Client, method, url string, in []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(in))
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

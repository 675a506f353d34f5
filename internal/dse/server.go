package dse

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"casino/internal/telemetry"
)

// Server exposes the engine over HTTP. Routes (see README for a curl
// session):
//
//	POST /v1/sweeps               submit a Grid, get {"id": ...} back (202)
//	GET  /v1/sweeps               list all jobs with live progress
//	GET  /v1/sweeps/{id}          job progress: cells done/total, cache hits
//	GET  /v1/sweeps/{id}/progress progress + ETA/elapsed/cell-latency EWMA
//	GET  /v1/sweeps/{id}/events   Server-Sent-Events progress stream
//	GET  /v1/sweeps/{id}/manifest merged sweep manifest (409 until done)
//	GET  /v1/sweeps/{id}/pareto   per-workload IPC × energy Pareto frontiers
//	GET  /metrics                 Prometheus text exposition (telemetry pkg)
//	GET  /healthz                 liveness
//	GET  /readyz                  readiness: 503 until the pool is up or once draining
//	GET  /debug/pprof/...         profiling, only with WithPprof
type Server struct {
	engine *Engine
	mux    *http.ServeMux
	log    *slog.Logger
	tel    *telemetry.Registry

	reqSeq atomic.Uint64
	httpMs *telemetry.Summary
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithLogger enables structured request logging: one line per request
// with a request id, method, path, status and latency. Health and scrape
// endpoints log at Debug so a poll-heavy deployment stays readable at
// Info.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.log = l }
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Opt-in: profiling
// endpoints expose heap contents and must never be on by default.
func WithPprof() ServerOption {
	return func(s *Server) {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// NewServer wires the engine's HTTP surface, including the /metrics
// registry built by NewTelemetry.
func NewServer(e *Engine, opts ...ServerOption) *Server {
	s := &Server{engine: e, mux: http.NewServeMux(), tel: NewTelemetry(e)}
	s.httpMs = s.tel.Summary("casino_http_request_ms",
		"HTTP request latency in milliseconds.", 60*1000)
	s.mux.HandleFunc("POST /v1/sweeps", s.submit)
	s.mux.HandleFunc("GET /v1/sweeps", s.list)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.status)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/progress", s.progress)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.events)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/manifest", s.manifest)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/pareto", s.pareto)
	s.mux.Handle("GET /metrics", s.tel.Handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.readyz)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// statusRecorder captures the response code for logging/metrics and
// passes Flush through so the SSE handler can stream through it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP dispatches through the observation middleware: every request
// gets an id, a latency observation, a per-status-code counter, and —
// with WithLogger — a structured log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	s.httpMs.Observe(float64(elapsed) / float64(time.Millisecond))
	s.tel.Counter("casino_http_requests_total", "HTTP requests by status code.",
		telemetry.Label{Name: "code", Value: strconv.Itoa(rec.code)}).Inc()
	if s.log == nil {
		return
	}
	level := slog.LevelInfo
	switch r.URL.Path {
	case "/healthz", "/readyz", "/metrics":
		level = slog.LevelDebug // scrape traffic: visible at -log-level debug only
	}
	s.log.LogAttrs(r.Context(), level, "request",
		slog.String("req_id", fmt.Sprintf("req-%08x", s.reqSeq.Add(1))),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.code),
		slog.Duration("latency", elapsed),
		slog.String("remote", r.RemoteAddr),
	)
}

// SubmitResponse is the POST /v1/sweeps body.
type SubmitResponse struct {
	ID        string `json:"id"`
	Cells     int    `json:"cells"`
	StatusURL string `json:"status_url"`
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	g, err := ReadGrid(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.engine.Submit(g)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrShuttingDown) || errors.Is(err, ErrQueueFull) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	if s.log != nil {
		s.log.Info("sweep accepted", "sweep", job.ID, "cells", len(job.Cells))
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:        job.ID,
		Cells:     len(job.Cells),
		StatusURL: "/v1/sweeps/" + job.ID,
	})
}

// ListResponse is the GET /v1/sweeps body: every accepted job in
// submission order with its live progress.
type ListResponse struct {
	Sweeps []Progress `json:"sweeps"`
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	jobs := s.engine.Jobs()
	resp := ListResponse{Sweeps: make([]Progress, len(jobs))}
	for i, j := range jobs {
		resp.Sweeps[i] = j.Progress()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.engine.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", r.PathValue("id")))
	}
	return job, ok
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Snapshot())
	}
}

func (s *Server) progress(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Progress())
	}
}

// sseRefresh paces the keep-fresh resend between cell completions so a
// stream over a long-running cell still counts its ETA down.
const sseRefresh = time.Second

// events streams the job's progress as Server-Sent Events: an initial
// snapshot on subscribe, a coalesced "progress" event per cell
// completion (plus a once-per-second refresh while idle), and a terminal
// "done" event carrying the final snapshot, after which the stream ends.
// The subscription channel is closed by the engine on job completion —
// including during a drain — so a client never hangs on a dying server.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	ch, cancel := job.subscribe()
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	send := func(event string, p Progress) bool {
		data, err := json.Marshal(p)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	refresh := time.NewTicker(sseRefresh)
	defer refresh.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case p, open := <-ch:
			if !open {
				return // terminal event already delivered
			}
			event := "progress"
			if p.Terminal() {
				event = "done"
			}
			if !send(event, p) {
				return
			}
		case <-refresh.C:
			// Between-publish refresh keeps the ETA live; terminal states
			// are left to the subscription channel so "done" is emitted
			// exactly once.
			if p := job.Progress(); !p.Terminal() {
				if !send("progress", p) {
					return
				}
			}
		}
	}
}

func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.engine.Draining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.engine.Ready():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) manifest(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	m, ready := job.Manifest()
	if !ready {
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is %s, manifest not available", job.ID, job.Snapshot().State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := m.Encode(w); err != nil {
		// Headers are gone; nothing useful left to send.
		return
	}
}

// ParetoResponse is the GET /v1/sweeps/{id}/pareto body: per workload,
// the Pareto-optimal (IPC, energy/inst) design points in ascending IPC.
type ParetoResponse struct {
	ID        string             `json:"id"`
	Workloads map[string][]Point `json:"workloads"`
}

func (s *Server) pareto(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	pts, ready := job.Points()
	if !ready {
		writeError(w, http.StatusConflict, fmt.Errorf("sweep %s is %s, pareto not available", job.ID, job.Snapshot().State))
		return
	}
	writeJSON(w, http.StatusOK, ParetoResponse{ID: job.ID, Workloads: FrontierByWorkload(pts)})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

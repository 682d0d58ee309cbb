package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"equalizer/internal/exp"
	"equalizer/internal/service/tuner"
	"equalizer/internal/telemetry"
)

// Handler returns the service's public HTTP surface:
//
//	POST /v1/run         one kernel×policy×config run
//	POST /v1/sweep       a batch of runs (kernels×setups cross product)
//	GET  /v1/kernels     available kernels
//	GET  /metrics        telemetry registry, Prometheus text format
//	GET  /healthz        process liveness
//	GET  /readyz         admission readiness (503 while draining)
//
// The diagnostic endpoints live on DebugHandler, not here.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.instrument("/v1/run", s.handleRun))
	mux.HandleFunc("/v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("/v1/kernels", s.instrument("/v1/kernels", s.handleKernels))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// DebugHandler returns the diagnostic surface, kept off the public Handler
// because request traces carry kernel/policy/error details and pprof lets a
// caller induce CPU-profiling load — bind it to a loopback-only listener
// (eqsimd's -debug-addr):
//
//	GET  /debug/requests request-trace ring buffer (?format=chrome)
//	GET  /debug/tuner    self-tuning controller decision ring
//	     /debug/pprof/*  net/http/pprof profiles
func (s *Service) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/requests", s.handleRequests)
	mux.HandleFunc("/debug/tuner", s.handleTuner)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// apiHandler is an instrumented API endpoint: it receives the request's
// active trace and returns (status, error) for uniform logging/tracing.
type apiHandler func(w http.ResponseWriter, r *http.Request, tr *activeTrace) (int, error)

// instrument wraps an API endpoint with request-ID minting, structured
// logging, latency accounting and ring-buffer tracing.
func (s *Service) instrument(path string, h apiHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = s.nextRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		tr := newActiveTrace(id, r.Method, path, start)
		status, err := h(w, r, tr)
		end := time.Now()
		s.reqHist.Observe(end.Sub(start).Seconds())
		s.reg.Counter("service_requests_total", "API requests by endpoint and status code",
			telemetry.Labels{"path": path, "code": strconv.Itoa(status)}).Inc()
		done := tr.finish(status, err, end)
		s.traces.add(done)
		attrs := []slog.Attr{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", path),
			slog.Int("status", status),
			slog.Duration("dur", end.Sub(start)),
		}
		if done.Kernel != "" {
			attrs = append(attrs, slog.String("kernel", done.Kernel), slog.String("policy", done.Policy))
		}
		if done.Source != "" {
			attrs = append(attrs, slog.String("source", done.Source))
		}
		if done.Cells > 0 {
			attrs = append(attrs, slog.Int("cells", done.Cells))
		}
		level := slog.LevelInfo
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
			if status >= 500 {
				level = slog.LevelError
			} else {
				level = slog.LevelWarn
			}
		}
		s.log.LogAttrs(r.Context(), level, "request", attrs...)
	}
}

// writeJSON encodes v, timing the encode stage.
func (s *Service) writeJSON(w http.ResponseWriter, tr *activeTrace, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e0 := time.Now()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The response is already committed; the write error is recorded
		// on the trace (typically a client disconnect).
		tr.set(func(t *RequestTrace) { t.Err = err.Error() })
	}
	d := time.Since(e0)
	s.stageEncode.Observe(d.Seconds())
	tr.addStage("encode", tr.since(e0), d)
}

// writeError sends the uniform error body.
func (s *Service) writeError(w http.ResponseWriter, tr *activeTrace, status int, err error) (int, error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfter().Seconds())))
	}
	s.writeJSON(w, tr, status, ErrorResponse{RequestID: tr.t.ID, Error: err.Error()})
	return status, err
}

// admitRequest runs the shared admission path for n cells: drain refusal
// (503), then queue-bound shedding (429). ok=false means the response has
// been written.
func (s *Service) admitRequest(w http.ResponseWriter, tr *activeTrace, n int) (int, error, bool) {
	if !s.beginWork() {
		st, err := s.writeError(w, tr, http.StatusServiceUnavailable, fmt.Errorf("service is draining"))
		return st, err, false
	}
	if !s.admit(n) {
		s.wg.Done()
		s.shed.Inc()
		st, err := s.writeError(w, tr, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d cells admitted, %d requested)", s.queued.Load(), n))
		return st, err, false
	}
	return 0, nil, true
}

// decodeSpec decodes a /v1/run or /v1/sweep body into v. A field v does
// not have is an error that names it, so a request is never silently
// served a different cell than the one it asked for.
func decodeSpec(r io.Reader, v interface{}) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request, tr *activeTrace) (int, error) {
	if r.Method != http.MethodPost {
		return s.writeError(w, tr, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
	}
	var spec RunSpec
	if err := decodeSpec(r.Body, &spec); err != nil {
		return s.writeError(w, tr, http.StatusBadRequest, err)
	}
	c, err := spec.resolve()
	if err != nil {
		return s.writeError(w, tr, http.StatusBadRequest, err)
	}
	tr.set(func(t *RequestTrace) {
		t.Kernel = c.kernel.Name
		t.Policy = c.setup.Policy
		t.Cells = 1
	})
	if st, err, ok := s.admitRequest(w, tr, 1); !ok {
		return st, err
	}
	defer s.wg.Done()
	tot, src, err := s.runCell(r.Context(), tr, c.kernel, c.setup)
	if err != nil {
		if r.Context().Err() != nil {
			// Client went away: nothing to write, log 499 (nginx's
			// client-closed-request convention).
			return 499, err
		}
		return s.writeError(w, tr, http.StatusInternalServerError, err)
	}
	tr.set(func(t *RequestTrace) { t.Source = string(src) })
	s.writeJSON(w, tr, http.StatusOK, RunResponse{
		RequestID: tr.t.ID,
		RunResult: RunResult{Kernel: c.kernel.Name, Setup: c.setup, Source: string(src), Totals: tot},
	})
	return http.StatusOK, nil
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request, tr *activeTrace) (int, error) {
	if r.Method != http.MethodPost {
		return s.writeError(w, tr, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
	}
	var spec SweepSpec
	if err := decodeSpec(r.Body, &spec); err != nil {
		return s.writeError(w, tr, http.StatusBadRequest, err)
	}
	// A sweep larger than the whole queue can never be admitted, so it gets
	// 413 (retrying is pointless), decided before the cross product is
	// expanded: a small body can name millions of cells. A single run
	// always fits, since the cap is at least one worker.
	n := spec.count()
	tr.set(func(t *RequestTrace) { t.Cells = n })
	if cap := s.admitCap.Load(); int64(n) > cap {
		return s.writeError(w, tr, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request needs %d run cells but the service admits at most %d: split the sweep or raise -queue-depth", n, cap))
	}
	cs, err := spec.cells()
	if err != nil {
		return s.writeError(w, tr, http.StatusBadRequest, err)
	}
	tr.set(func(t *RequestTrace) {
		t.Kernel = cs[0].kernel.Name
		t.Policy = cs[0].setup.Policy
	})
	if st, err, ok := s.admitRequest(w, tr, len(cs)); !ok {
		return st, err
	}
	defer s.wg.Done()

	results := make([]RunResult, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			tot, src, err := s.runCell(r.Context(), tr, c.kernel, c.setup)
			if err != nil {
				errs[i] = fmt.Errorf("%s/%s: %w", c.kernel.Name, c.setup.Policy, err)
				return
			}
			results[i] = RunResult{Kernel: c.kernel.Name, Setup: c.setup, Source: string(src), Totals: tot}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if r.Context().Err() != nil {
				return 499, err
			}
			return s.writeError(w, tr, http.StatusInternalServerError, err)
		}
	}
	s.writeJSON(w, tr, http.StatusOK, SweepResponse{RequestID: tr.t.ID, Results: results})
	return http.StatusOK, nil
}

func (s *Service) handleKernels(w http.ResponseWriter, r *http.Request, tr *activeTrace) (int, error) {
	if r.Method != http.MethodGet {
		return s.writeError(w, tr, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
	}
	s.writeJSON(w, tr, http.StatusOK, Kernels())
	return http.StatusOK, nil
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.log.Warn("metrics write failed", slog.String("error", err.Error()))
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfter().Seconds())))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// handleRequests dumps the request-trace ring, oldest first. ?format=chrome
// renders the traces as a Chrome trace-event document (Perfetto-loadable).
func (s *Service) handleRequests(w http.ResponseWriter, r *http.Request) {
	traces := s.traces.snapshot()
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(traces); err != nil {
			s.log.Warn("trace dump failed", slog.String("error", err.Error()))
		}
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		spans, opts := TracesToChromeSpans(traces)
		if err := telemetry.WriteChromeSpans(w, spans, opts); err != nil {
			s.log.Warn("trace dump failed", slog.String("error", err.Error()))
		}
	default:
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `unknown format (want json or chrome)`)
	}
}

// tunerStatus is the /debug/tuner response shape.
type tunerStatus struct {
	Enabled bool `json:"enabled"`
	// Epochs, Workers and AdmissionLimit summarise the controller's
	// current state; Decisions is the retained ring, oldest first.
	Epochs         uint64           `json:"epochs,omitempty"`
	Workers        int              `json:"workers,omitempty"`
	AdmissionLimit int              `json:"admission_limit,omitempty"`
	IntervalMS     float64          `json:"interval_ms,omitempty"`
	MinWorkers     int              `json:"min_workers,omitempty"`
	MaxWorkers     int              `json:"max_workers,omitempty"`
	Decisions      []tuner.Decision `json:"decisions,omitempty"`
}

// handleTuner dumps the self-tuning controller's configuration and decision
// ring. Debug-only: decisions expose load patterns, so the endpoint lives
// on the loopback listener with the rest of the diagnostic surface.
func (s *Service) handleTuner(w http.ResponseWriter, r *http.Request) {
	st := tunerStatus{Enabled: s.tuner != nil}
	if s.tuner != nil {
		cfg := s.tuner.Config()
		st.Epochs = s.tuner.Epochs()
		st.Workers, st.AdmissionLimit = s.tuner.Settings()
		st.IntervalMS = float64(cfg.Interval.Milliseconds())
		st.MinWorkers, st.MaxWorkers = cfg.MinWorkers, cfg.MaxWorkers
		st.Decisions = s.tuner.Decisions()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		s.log.Warn("tuner dump failed", slog.String("error", err.Error()))
	}
}

// DirectTotals runs one cell directly on the service's harness, bypassing
// HTTP; the repository benchmark (bench/) uses it to check results.
func (s *Service) DirectTotals(spec RunSpec) (exp.Totals, error) {
	c, err := spec.resolve()
	if err != nil {
		return exp.Totals{}, err
	}
	return s.h.Run(c.kernel, c.setup)
}

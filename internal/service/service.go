// Package service wraps the experiment harness in a long-running simulation
// server: an HTTP/JSON API to submit kernel×policy×config runs and sweeps,
// backed by the singleflight scheduler of internal/exp and the persistent
// content-addressed result store of internal/exp/runcache, so popular
// configurations simulate once and serve forever.
//
// The package is built around operability: admission control with a bounded
// queue (429 + Retry-After on overload), graceful drain, the telemetry
// registry served live at /metrics in Prometheus text, per-stage latency
// histograms (queue wait, dedup, cache lookup, simulation, encode), request
// IDs propagated through structured logs and a ring-buffer request-trace
// endpoint (/debug/requests, Chrome-trace exportable), and /healthz +
// /readyz + net/http/pprof.
package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/kernels"
	"equalizer/internal/service/tuner"
	"equalizer/internal/telemetry"
)

// Config parameterises a Service.
type Config struct {
	// GridScale multiplies every kernel's grid size (0 means 1.0); the
	// benchmark, the tests and CI smoke runs use small scales.
	GridScale float64
	// Parallelism is the simulation worker-pool width (0 = GOMAXPROCS).
	Parallelism int
	// QueueDepth bounds how many run cells may wait for a worker beyond
	// the ones in flight; an arriving request that would exceed it is shed
	// with 429. 0 means 64; negative means no queueing (admit only up to
	// the worker count).
	QueueDepth int
	// CacheDir roots the persistent result cache; empty disables disk
	// caching (the in-process memo still applies).
	CacheDir string
	// TraceCapacity sizes the request-trace ring buffer (0 = 256).
	TraceCapacity int
	// RetryAfter is the hint returned with 429/503 responses (0 = 1s).
	RetryAfter time.Duration
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// Registry receives every service and harness metric; nil uses a
	// private registry (still served at /metrics).
	Registry *telemetry.Registry

	// Tune enables the self-tuning controller: an epoch-based feedback
	// loop that resizes the run worker pool within [TuneMinWorkers,
	// TuneMaxWorkers] and adjusts the admission limit from the live queue
	// depth, occupancy, shed count and request-latency histogram. When
	// set, Parallelism is ignored — the pool starts at TuneMinWorkers and
	// the controller climbs from there. The controller only changes
	// scheduling, never simulation parameters: results stay byte-identical.
	Tune bool
	// TuneInterval is the control epoch length (0 = 250ms).
	TuneInterval time.Duration
	// TuneMinWorkers and TuneMaxWorkers bound the pool width
	// (0 = 1 and 4×min).
	TuneMinWorkers, TuneMaxWorkers int
	// TuneRingCap sizes the /debug/tuner decision ring (0 = 256).
	TuneRingCap int
}

// runFunc executes one run cell; swapped out by lifecycle tests.
type runFunc func(ctx context.Context, k kernels.Kernel, s exp.Setup) (exp.Totals, exp.RunSource, error)

// Service is the long-running simulation server core. Create with New,
// expose with Handler, stop with Drain.
type Service struct {
	cfg   Config
	h     *exp.Harness
	reg   *telemetry.Registry
	log   *slog.Logger
	start time.Time

	// Admission control: queued counts every admitted-but-unfinished run
	// cell (waiting + in flight) against admitCap; the harness's worker
	// pool bounds the cells actually simulating. admitCap is atomic
	// because the tuner raises it at runtime.
	admitCap atomic.Int64
	queued   atomic.Int64
	inflight atomic.Int64

	// tuner is the optional self-tuning controller (nil unless
	// Config.Tune); stopped by StartDrain.
	tuner *tuner.Controller

	// Drain coordination: workMu serialises the draining flip against
	// beginWork, wg tracks admitted request work.
	workMu   sync.Mutex
	draining atomic.Bool
	wg       sync.WaitGroup

	traces *traceRing
	reqSeq atomic.Uint64
	idBase string

	run runFunc

	// Metrics.
	shed        *telemetry.Counter
	cellsTotal  *telemetry.Counter
	queueGauge  *telemetry.Gauge
	inflightG   *telemetry.Gauge
	readyGauge  *telemetry.Gauge
	hitRatio    *telemetry.Gauge
	reqHist     *telemetry.Histogram
	stageQueue  *telemetry.Histogram
	stageEncode *telemetry.Histogram
}

// latencyBounds are the serving-path histogram buckets, in seconds.
var latencyBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}

// New builds a Service. The caller owns serving its Handler.
func New(cfg Config) (*Service, error) {
	s := &Service{cfg: cfg, start: time.Now()}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.reg = cfg.Registry
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	var cache *runcache.Cache
	if cfg.CacheDir != "" {
		var err error
		if cache, err = runcache.Open(cfg.CacheDir); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	par := cfg.Parallelism
	tcfg := tuner.Config{
		Interval:   cfg.TuneInterval,
		MinWorkers: cfg.TuneMinWorkers,
		MaxWorkers: cfg.TuneMaxWorkers,
		RingCap:    cfg.TuneRingCap,
	}.WithDefaults()
	if cfg.Tune {
		// The pool starts at the controller's floor and the controller
		// climbs from there.
		par = tcfg.MinWorkers
	}
	s.h = exp.New(exp.Options{
		GridScale:   cfg.GridScale,
		Parallelism: par,
		Cache:       cache,
		Registry:    s.reg,
		Now:         func() int64 { return int64(time.Since(s.start)) },
		Logf: func(format string, args ...interface{}) {
			s.log.Info(fmt.Sprintf(format, args...))
		},
	})
	depth := cfg.QueueDepth
	switch {
	case depth == 0:
		depth = 64
	case depth < 0:
		depth = 0
	}
	s.admitCap.Store(int64(s.h.Parallelism() + depth))
	s.traces = newTraceRing(cfg.TraceCapacity)
	s.idBase = fmt.Sprintf("%x", s.start.UnixNano())
	s.run = func(ctx context.Context, k kernels.Kernel, setup exp.Setup) (exp.Totals, exp.RunSource, error) {
		return s.h.RunCtx(ctx, k, setup)
	}

	s.shed = s.reg.Counter("service_shed_total", "requests rejected by admission control (429)", nil)
	s.cellsTotal = s.reg.Counter("service_cells_total", "run cells admitted for execution", nil)
	s.queueGauge = s.reg.Gauge("service_queue_depth", "admitted run cells waiting for a worker", nil)
	s.inflightG = s.reg.Gauge("service_inflight_runs", "run cells currently executing", nil)
	s.readyGauge = s.reg.Gauge("service_ready", "1 while accepting work, 0 while draining", nil)
	s.hitRatio = s.reg.Gauge("service_cache_hit_ratio", "cache+memo hits over total runs since start", nil)
	s.reqHist = s.reg.Histogram("service_request_seconds", "end-to-end request latency", latencyBounds, nil)
	s.stageQueue = s.reg.Histogram("service_stage_seconds", "per-stage request latency",
		latencyBounds, telemetry.Labels{"stage": "queue"})
	s.stageEncode = s.reg.Histogram("service_stage_seconds", "per-stage request latency",
		latencyBounds, telemetry.Labels{"stage": "encode"})
	s.readyGauge.Set(1)
	if cfg.Tune {
		// The admission floor is what the operator configured: the
		// controller may open admission beyond it under load but never
		// tighten below it.
		tcfg.MinAdmit = tcfg.MinWorkers + depth
		tcfg.MaxAdmit = tcfg.MaxWorkers + 16*depth
		tcfg.Registry = s.reg
		s.tuner = tuner.New(tcfg, tuneTarget{s})
		s.tuner.Start()
		s.log.Info("tuner started",
			"interval", tcfg.Interval,
			"min_workers", tcfg.MinWorkers, "max_workers", tcfg.MaxWorkers)
	}
	return s, nil
}

// tuneTarget adapts the Service to the controller's Target interface.
type tuneTarget struct{ s *Service }

// Sample snapshots the serving tier's control inputs.
func (t tuneTarget) Sample() tuner.Sample {
	s := t.s
	st := s.h.Pool().Stats()
	waiting := int(s.queued.Load()) - int(s.inflight.Load())
	if waiting < 0 {
		waiting = 0
	}
	return tuner.Sample{
		QueueDepth: waiting,
		Busy:       st.Busy,
		Workers:    st.Size,
		AdmitCap:   int(s.admitCap.Load()),
		Shed:       s.shed.Value(),
		Latency:    s.reqHist.Snapshot(),
	}
}

// Apply resizes the run worker pool and the admission limit. The pool
// resize never interrupts an in-flight run: workers retire at task
// boundaries only.
func (t tuneTarget) Apply(workers, admitCap int) {
	t.s.h.Pool().Resize(workers)
	t.s.admitCap.Store(int64(admitCap))
	t.s.log.Info("tuner applied", "workers", workers, "admission_limit", admitCap)
}

// Registry returns the registry served at /metrics.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Stats snapshots the harness scheduler counters.
func (s *Service) Stats() exp.SchedulerStats { return s.h.SchedulerStats() }

// Ready reports whether the service accepts new work.
func (s *Service) Ready() bool { return !s.draining.Load() }

// retryAfter returns the configured overload hint.
func (s *Service) retryAfter() time.Duration {
	if s.cfg.RetryAfter > 0 {
		return s.cfg.RetryAfter
	}
	return time.Second
}

// nextRequestID mints a process-unique request ID.
func (s *Service) nextRequestID() string {
	return fmt.Sprintf("req-%s-%06d", s.idBase, s.reqSeq.Add(1))
}

// admit reserves n run cells against the bounded queue; false means the
// request must be shed.
func (s *Service) admit(n int) bool {
	for {
		q := s.queued.Load()
		if q+int64(n) > s.admitCap.Load() {
			return false
		}
		if s.queued.CompareAndSwap(q, q+int64(n)) {
			s.cellsTotal.Add(uint64(n))
			s.updateGauges()
			return true
		}
	}
}

// releaseCell returns one admitted cell's reservation.
func (s *Service) releaseCell() {
	s.queued.Add(-1)
	s.updateGauges()
}

func (s *Service) updateGauges() {
	in := s.inflight.Load()
	waiting := s.queued.Load() - in
	if waiting < 0 {
		waiting = 0
	}
	s.queueGauge.Set(float64(waiting))
	s.inflightG.Set(float64(in))
}

// updateHitRatio refreshes the cache-hit gauge from the scheduler counters:
// every run answered without simulating (memo or disk) counts as a hit.
func (s *Service) updateHitRatio() {
	st := s.h.SchedulerStats()
	if st.Runs == 0 {
		return
	}
	s.hitRatio.Set(float64(st.MemoHits+st.CacheHits) / float64(st.Runs))
}

// beginWork registers one request's work against the drain waitgroup; false
// means the service is draining and the request must be refused.
func (s *Service) beginWork() bool {
	s.workMu.Lock()
	defer s.workMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

// StartDrain flips the service into draining mode: /readyz reports 503 and
// new run submissions are refused, while admitted work keeps running. The
// self-tuning controller, if any, stops first — settings freeze at their
// last applied values for the drain.
func (s *Service) StartDrain() {
	if s.tuner != nil {
		s.tuner.Stop()
	}
	s.workMu.Lock()
	s.draining.Store(true)
	s.workMu.Unlock()
	s.readyGauge.Set(0)
	s.log.Info("drain started")
}

// Drain flips into draining mode and blocks until every admitted request
// completes or ctx expires.
func (s *Service) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain aborted with %d cells outstanding: %w",
			s.queued.Load(), ctx.Err())
	}
}

// runCell executes one admitted run cell: wait for a pool worker (the queue
// stage), then run through the harness, which itself accounts the dedup,
// cache-lookup and simulate stages. The cell's admission reservation is
// released on return.
func (s *Service) runCell(ctx context.Context, tr *activeTrace, k kernels.Kernel, setup exp.Setup) (exp.Totals, exp.RunSource, error) {
	defer s.releaseCell()
	q0 := time.Now()
	var tot exp.Totals
	var src exp.RunSource
	var err error
	poolErr := s.h.Pool().Do(ctx, func() {
		qd := time.Since(q0)
		s.stageQueue.Observe(qd.Seconds())
		tr.addStage("queue", tr.since(q0), qd)
		s.inflight.Add(1)
		s.updateGauges()
		defer func() {
			s.inflight.Add(-1)
			s.updateGauges()
		}()
		r0 := time.Now()
		tot, src, err = s.run(ctx, k, setup)
		tr.addStage("run", tr.since(r0), time.Since(r0))
	})
	if poolErr != nil {
		qd := time.Since(q0)
		s.stageQueue.Observe(qd.Seconds())
		tr.addStage("queue", tr.since(q0), qd)
		return exp.Totals{}, exp.SourceNone, fmt.Errorf("service: canceled while queued: %w", poolErr)
	}
	s.updateHitRatio()
	return tot, src, err
}

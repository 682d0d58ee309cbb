// Command eqsimd is the long-running simulation service: an HTTP/JSON API to
// submit kernel×policy×config runs and sweeps, backed by the singleflight
// experiment scheduler and the persistent content-addressed result cache, so
// popular configurations simulate once and serve forever.
//
// Usage:
//
//	eqsimd                              # serve on :8080, cache in .eqcache
//	eqsimd -addr :9000 -parallel 8      # custom port, 8 simulation workers
//	eqsimd -queue-depth 256 -scale 0.5  # deeper queue, scaled-down grids
//
// Endpoints:
//
//	POST /v1/run         {"kernel":"cutcp","policy":"equalizer-perf"}
//	POST /v1/sweep       {"kernels":["cutcp","lbm"],"setups":[{},{"policy":"ccws"}]}
//	GET  /v1/kernels     available kernels
//	GET  /metrics        live telemetry registry (Prometheus text)
//	GET  /healthz        liveness
//	GET  /readyz         readiness (503 while draining)
//
// Diagnostic endpoints are served on a separate listener (-debug-addr,
// loopback by default, empty disables) because request traces leak
// kernel/policy/error details and pprof can induce profiling load:
//
//	GET  /debug/requests request-trace ring buffer (?format=chrome)
//	GET  /debug/tuner    self-tuning controller decision ring
//	     /debug/pprof/*  runtime profiles
//
// With -tune, a feedback controller samples the live queue depth, worker
// occupancy, shed count and request-latency histogram every -tune-interval
// and resizes the simulation worker pool within [-tune-min-workers,
// -tune-max-workers] (opening the admission limit alongside), so the
// service adapts its capacity to the offered load instead of being pinned
// at -parallel. Tuning only changes scheduling — results stay
// byte-identical.
//
// Overloaded submissions are shed with 429 + Retry-After. SIGTERM/SIGINT
// starts a graceful drain: /readyz flips to 503, new submissions are
// refused, in-flight runs complete (bounded by -drain-timeout), then the
// listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"equalizer/internal/exp"
	"equalizer/internal/service"
	"equalizer/internal/telemetry"
)

// options collects the command line; run consumes it.
type options struct {
	addr, debugAddr        string
	cacheDir               string
	noCache                bool
	parallel               int
	queueDepth             int
	scale                  float64
	traceCap               int
	retryAfter             time.Duration
	drainTimeout           time.Duration
	tune                   bool
	tuneInterval           time.Duration
	tuneMin, tuneMax       int
	logFormat, logLevel    string
	cpuprofile, memprofile string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.debugAddr, "debug-addr", "127.0.0.1:8081", "listen address for /debug/requests, /debug/tuner and /debug/pprof (empty disables)")
	flag.StringVar(&o.cacheDir, "cache-dir", ".eqcache", "persistent result-cache directory")
	flag.BoolVar(&o.noCache, "no-cache", false, "disable the persistent result cache")
	flag.IntVar(&o.parallel, "parallel", 0, "concurrent simulations (0 = GOMAXPROCS; ignored with -tune)")
	flag.IntVar(&o.queueDepth, "queue-depth", 64, "run cells that may wait beyond the in-flight ones before shedding")
	flag.Float64Var(&o.scale, "scale", 1.0, "grid-size scale factor (0,1]")
	flag.IntVar(&o.traceCap, "trace-capacity", 256, "request-trace ring-buffer capacity")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After hint on 429/503 responses")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "max wait for in-flight runs on shutdown")
	flag.BoolVar(&o.tune, "tune", false, "enable the self-tuning controller (resizes the worker pool and admission limit from live load)")
	flag.DurationVar(&o.tuneInterval, "tune-interval", 250*time.Millisecond, "control epoch length for -tune")
	flag.IntVar(&o.tuneMin, "tune-min-workers", 1, "worker-pool floor for -tune")
	flag.IntVar(&o.tuneMax, "tune-max-workers", 0, "worker-pool ceiling for -tune (0 = 4x the floor)")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text | json")
	flag.StringVar(&o.logLevel, "log-level", "info", "log level: debug | info | warn | error")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "eqsimd:", err)
		os.Exit(1)
	}
}

// newLogger builds the slog logger from the command line.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func run(o options) error {
	log, err := newLogger(o.logFormat, o.logLevel)
	if err != nil {
		return err
	}
	stopProfiling, err := telemetry.StartProfiling(o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	if o.noCache {
		o.cacheDir = ""
	}
	if o.tune && o.tuneMax > 0 && o.tuneMax < o.tuneMin {
		return fmt.Errorf("-tune-max-workers %d below -tune-min-workers %d", o.tuneMax, o.tuneMin)
	}
	svc, err := service.New(service.Config{
		GridScale:      o.scale,
		Parallelism:    o.parallel,
		QueueDepth:     o.queueDepth,
		CacheDir:       exp.CacheDir(o.cacheDir),
		TraceCapacity:  o.traceCap,
		RetryAfter:     o.retryAfter,
		Logger:         log,
		Tune:           o.tune,
		TuneInterval:   o.tuneInterval,
		TuneMinWorkers: o.tuneMin,
		TuneMaxWorkers: o.tuneMax,
	})
	if err != nil {
		return err
	}

	srv := &http.Server{Addr: o.addr, Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() {
		log.Info("serving", slog.String("addr", o.addr),
			slog.String("cache_dir", o.cacheDir), slog.Float64("scale", o.scale))
		serveErr <- srv.ListenAndServe()
	}()

	// The diagnostic surface binds separately (loopback by default): its
	// failure degrades debuggability, not service.
	var debugSrv *http.Server
	if o.debugAddr != "" {
		debugSrv = &http.Server{Addr: o.debugAddr, Handler: svc.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Info("debug listener", slog.String("addr", o.debugAddr))
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Warn("debug listener failed", slog.String("error", err.Error()))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		return err
	case got := <-sig:
		log.Info("shutdown signal", slog.String("signal", got.String()))
	}

	// Graceful drain: refuse new work, finish in-flight runs, then close
	// the listener.
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		log.Warn("drain incomplete", slog.String("error", err.Error()))
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Warn("http shutdown", slog.String("error", err.Error()))
		if cerr := srv.Close(); cerr != nil {
			return cerr
		}
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil {
			debugSrv.Close()
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	st := svc.Stats()
	log.Info("exit",
		slog.Uint64("runs", st.Runs), slog.Uint64("simulated", st.Simulated),
		slog.Uint64("memo_hits", st.MemoHits), slog.Uint64("cache_hits", st.CacheHits))
	return stopProfiling()
}

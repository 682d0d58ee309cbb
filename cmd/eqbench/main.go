// Command eqbench regenerates the tables and figures of the paper's
// evaluation on the simulated GPU.
//
// Usage:
//
//	eqbench -exp all            # everything (several minutes)
//	eqbench -exp fig7           # one experiment
//	eqbench -exp summary        # headline numbers only
//	eqbench -exp fig1 -scale .5 # scaled-down grids for a quick look
//
// Experiments: table1 table2 table3 fig1 fig2a fig2b fig4 fig5 fig7 fig8
// fig9 fig10 fig11a fig11b summary all, plus the extension studies
// `ablation` (runtime-parameter sweeps), `boost` (GPU-Boost-style
// power-headroom baseline), `concurrent` (multi-kernel partitioning) and
// `service` (eqsimd serving-path load benchmark: tail latency, throughput,
// shed rate, cache hit rate), which are not part of `all`. -service-tune
// adds a warm pass with the self-tuning controller on; -service-url points
// the same load harness at an externally running eqsimd (the CI smoke uses
// this to drive a -tune instance).
//
// -metrics-addr serves the telemetry registry live over HTTP while the run
// is in progress (/metrics Prometheus text, /metrics.json).
//
// Runs execute on a worker pool (-parallel, default GOMAXPROCS) and results
// persist in a disk cache (-cache-dir, default .eqcache; -no-cache disables
// it), so a rerun with unchanged configuration simulates nothing. Scheduler
// and cache statistics print to stderr after each invocation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/service"
	"equalizer/internal/telemetry"
)

func main() {
	var (
		expName    = flag.String("exp", "summary", "experiment id or 'all'")
		scale      = flag.Float64("scale", 1.0, "grid-size scale factor (0,1]")
		asJSON     = flag.Bool("json", false, "emit JSON instead of text (fig7, fig8, fig10, summary, boost, service)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache-dir", ".eqcache", "persistent result-cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the persistent result cache")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
		metricsAdr = flag.String("metrics-addr", "", "serve the telemetry registry live over HTTP at this address during the run (e.g. 127.0.0.1:9090)")
	)
	flag.IntVar(&serviceRequests, "service-requests", 2000, "requests per pass for -exp service")
	flag.IntVar(&serviceClients, "service-clients", 64, "concurrent clients for -exp service")
	flag.BoolVar(&serviceTune, "service-tune", false, "add a warm pass with the self-tuning controller on to -exp service")
	flag.StringVar(&serviceURL, "service-url", "", "drive an externally running eqsimd at this base URL instead of an in-process service (-exp service)")
	flag.Parse()
	stopProfiling, err := telemetry.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
		}
	}()
	servicePar = *parallel
	reg := telemetry.NewRegistry()
	h, err := newHarness(*scale, *parallel, *cacheDir, *noCache, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
		os.Exit(1)
	}
	if *metricsAdr != "" {
		ms, err := service.StartMetricsServer(*metricsAdr, reg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "eqbench: serving live metrics on http://%s/metrics\n", ms.Addr())
		defer func() {
			if err := ms.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
			}
		}()
	}
	if *asJSON {
		if err := runJSON(h, *expName, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
			os.Exit(1)
		}
		printStats(h)
		return
	}

	names := strings.Split(*expName, ",")
	if *expName == "all" {
		names = []string{"table1", "table2", "table3", "fig1", "fig2a", "fig2b",
			"fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11a", "fig11b", "summary"}
	}
	for _, name := range names {
		start := time.Now()
		out, err := run(h, strings.TrimSpace(name), *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eqbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s completed in %.1fs]\n", name, time.Since(start).Seconds())
	}
	printStats(h)
}

// newHarness wires the experiment harness with the pool width and the disk
// cache selected on the command line. The registry backs -metrics-addr live
// serving.
func newHarness(scale float64, parallel int, cacheDir string, noCache bool, reg *telemetry.Registry) (*exp.Harness, error) {
	opts := exp.Options{
		GridScale:   scale,
		Parallelism: parallel,
		Registry:    reg,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if !noCache {
		cache, err := runcache.Open(cacheDir)
		if err != nil {
			return nil, err
		}
		opts.Cache = cache
	}
	return exp.New(opts), nil
}

// printStats reports the run-scheduler and cache counters to stderr.
func printStats(h *exp.Harness) {
	st := h.SchedulerStats()
	fmt.Fprintf(os.Stderr,
		"eqbench: %d runs (%d simulated, %d memo hits, %d cache hits) at parallelism %d; cache: %d misses, %d stores, %d errors\n",
		st.Runs, st.Simulated, st.MemoHits, st.CacheHits, h.Parallelism(),
		st.CacheMisses, st.CacheStores, st.CacheErrors)
}

func run(h *exp.Harness, name string, scale float64) (string, error) {
	switch name {
	case "service":
		rep, err := serviceBench(scale, serviceRequests, serviceClients, servicePar)
		if err != nil {
			return "", err
		}
		return renderService(rep), nil
	case "table1":
		return h.Table1(), nil
	case "table2":
		return h.Table2(), nil
	case "table3":
		return h.Table3(), nil
	case "fig1":
		d, err := h.Figure1()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure1(d), nil
	case "fig2a":
		d, err := h.Figure2a()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure2a(d), nil
	case "fig2b":
		s, err := h.Figure2b()
		if err != nil {
			return "", err
		}
		return exp.RenderSeries("Figure 2b: mri_g-1 warp-state time series", s), nil
	case "fig4":
		rows, err := h.Figure4()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure4(rows), nil
	case "fig5":
		rows, err := h.Figure5()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure5(rows), nil
	case "fig7":
		rows, err := h.Figure7()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure7(rows), nil
	case "fig8":
		rows, err := h.Figure8()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure8(rows), nil
	case "fig9":
		rows, err := h.Figure9()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure9(rows), nil
	case "fig10":
		rows, err := h.Figure10()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure10(rows), nil
	case "fig11a":
		d, err := h.Figure11a()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure11a(d), nil
	case "fig11b":
		d, err := h.Figure11b()
		if err != nil {
			return "", err
		}
		return exp.RenderFigure11b(d), nil
	case "summary":
		s, err := h.Summarize()
		if err != nil {
			return "", err
		}
		return exp.RenderSummary(s), nil
	case "ablation":
		return h.Ablations()
	case "concurrent":
		return h.ConcurrentStudy()
	case "boost":
		rows, err := h.BoostComparison()
		if err != nil {
			return "", err
		}
		return exp.RenderBoostComparison(rows), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", name)
	}
}

// summaryReport is the JSON form of -exp summary: the headline numbers plus
// the scheduler counters and wall time, so CI can track the perf trajectory
// (BENCH_parallel.json).
type summaryReport struct {
	Summary     exp.Summary        `json:"summary"`
	ElapsedSec  float64            `json:"elapsed_sec"`
	Parallelism int                `json:"parallelism"`
	Scheduler   exp.SchedulerStats `json:"scheduler"`
}

// runJSON emits the structured form of the data-bearing experiments.
func runJSON(h *exp.Harness, name string, scale float64) error {
	var v interface{}
	var err error
	switch name {
	case "service":
		v, err = serviceBench(scale, serviceRequests, serviceClients, servicePar)
	case "fig7":
		v, err = h.Figure7()
	case "fig8":
		v, err = h.Figure8()
	case "fig10":
		v, err = h.Figure10()
	case "summary":
		start := time.Now()
		var s exp.Summary
		if s, err = h.Summarize(); err == nil {
			v = summaryReport{
				Summary:     s,
				ElapsedSec:  time.Since(start).Seconds(),
				Parallelism: h.Parallelism(),
				Scheduler:   h.SchedulerStats(),
			}
		}
	case "boost":
		v, err = h.BoostComparison()
	default:
		return fmt.Errorf("experiment %q has no JSON form", name)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

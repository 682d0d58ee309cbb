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
// power-headroom baseline) and `concurrent` (multi-kernel partitioning),
// which are not part of `all`.
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
	"equalizer/internal/telemetry"
)

func main() {
	var (
		expName    = flag.String("exp", "summary", "experiment id or 'all'")
		scale      = flag.Float64("scale", 1.0, "grid-size scale factor (0,1]")
		asJSON     = flag.Bool("json", false, "emit JSON instead of text (fig7, fig8, fig10, summary, boost)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache-dir", ".eqcache", "persistent result-cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the persistent result cache")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
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
	h, err := newHarness(*scale, *parallel, *cacheDir, *noCache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
		os.Exit(1)
	}
	if *asJSON {
		start := time.Now()
		if err := runJSON(h, *expName); err != nil {
			fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %.1fs]\n", *expName, time.Since(start).Seconds())
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
		out, err := run(h, strings.TrimSpace(name))
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
// cache selected on the command line.
func newHarness(scale float64, parallel int, cacheDir string, noCache bool) (*exp.Harness, error) {
	opts := exp.Options{
		GridScale:   scale,
		Parallelism: parallel,
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

func run(h *exp.Harness, name string) (string, error) {
	switch name {
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

// runJSON emits the structured form of the data-bearing experiments.
func runJSON(h *exp.Harness, name string) error {
	var v interface{}
	var err error
	switch name {
	case "fig7":
		v, err = h.Figure7()
	case "fig8":
		v, err = h.Figure8()
	case "fig10":
		v, err = h.Figure10()
	case "summary":
		v, err = h.Summarize()
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

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
//
// -svg DIR also draws fig2b fig4 fig5 fig7 fig8 fig10 and fig11b as
// DIR/<id>.svg from the same data the text prints, so the images cost no
// extra simulation:
//
//	eqbench -exp all -svg figures > experiments_raw.txt
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"equalizer/internal/core"
	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/gpu"
	"equalizer/internal/svg"
	"equalizer/internal/telemetry"
)

// options are the output choices, split from the flag and os.Exit
// machinery so tests can drive emit directly.
type options struct {
	exp    string
	json   bool
	svgDir string
}

func main() {
	var (
		opts       options
		scale      = flag.Float64("scale", 1.0, "grid-size scale factor (0,1]")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache-dir", ".eqcache", "persistent result-cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the persistent result cache")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.StringVar(&opts.exp, "exp", "summary", "experiment id or 'all'")
	flag.BoolVar(&opts.json, "json", false, "emit JSON instead of text (fig7, fig8, fig10, summary, boost)")
	flag.StringVar(&opts.svgDir, "svg", "", "also write each figure's SVG image to this directory")
	flag.Parse()
	stopProfiling, err := telemetry.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
		}
	}()
	h, err := newHarness(*scale, *parallel, *cacheDir, *noCache)
	if err != nil {
		fatal(err)
	}
	if err := emit(h, opts, os.Stdout); err != nil {
		fatal(err)
	}
	printStats(h)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "eqbench: %v\n", err)
	os.Exit(1)
}

// emit runs the selected experiments in order, printing each one's text (or
// JSON) to w and, with svgDir set, writing each figure's image to
// svgDir/<id>.svg. Per-experiment timing goes to stderr.
func emit(h *exp.Harness, o options, w io.Writer) error {
	if o.json && o.svgDir != "" {
		return errors.New("-svg cannot be combined with -json")
	}
	if o.json {
		start := time.Now()
		if err := runJSON(h, o.exp, w); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %.1fs]\n", o.exp, time.Since(start).Seconds())
		return nil
	}
	if o.svgDir != "" {
		if err := os.MkdirAll(o.svgDir, 0o755); err != nil {
			return err
		}
	}
	names := strings.Split(o.exp, ",")
	if o.exp == "all" {
		names = []string{"table1", "table2", "table3", "fig1", "fig2a", "fig2b",
			"fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11a", "fig11b", "summary"}
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		text, doc, err := run(h, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w, text)
		if doc != "" && o.svgDir != "" {
			if err := os.WriteFile(filepath.Join(o.svgDir, name+".svg"), []byte(doc), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %.1fs]\n", name, time.Since(start).Seconds())
	}
	return nil
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

// run renders one experiment as text and, for the seven figures with an
// image form, as an SVG document drawn from the same data; every other
// experiment returns an empty SVG.
func run(h *exp.Harness, name string) (text, doc string, err error) {
	switch name {
	case "table1":
		return h.Table1(), "", nil
	case "table2":
		return h.Table2(), "", nil
	case "table3":
		return h.Table3(), "", nil
	case "fig1":
		d, err := h.Figure1()
		if err != nil {
			return "", "", err
		}
		return exp.RenderFigure1(d), "", nil
	case "fig2a":
		d, err := h.Figure2a()
		if err != nil {
			return "", "", err
		}
		return exp.RenderFigure2a(d), "", nil
	case "fig2b":
		pts, err := h.Figure2b()
		if err != nil {
			return "", "", err
		}
		doc := svg.LineChart("Figure 2b: mri_g-1 warp states over execution", "epoch",
			series(pts, func(p gpu.EpochPoint) []float64 {
				return []float64{p.Waiting, p.XMEM, p.XALU}
			}, "waiting", "excess mem", "excess compute"), 900, 420)
		return exp.RenderSeries("Figure 2b: mri_g-1 warp-state time series", pts), doc, nil
	case "fig4":
		rows, err := h.Figure4()
		if err != nil {
			return "", "", err
		}
		doc := barChart("Figure 4: state of warps (fraction of observations)", 1200, 460, rows,
			func(r exp.Fig4Row) (string, []float64) {
				return r.Kernel, []float64{r.Waiting, r.XALU, r.XMEM}
			}, "waiting", "excess ALU", "excess mem")
		return exp.RenderFigure4(rows), doc, nil
	case "fig5":
		rows, err := h.Figure5()
		if err != nil {
			return "", "", err
		}
		var curves []svg.Series
		for _, r := range rows {
			curves = append(curves, svg.Series{Name: r.Kernel, Values: r.Speedup})
		}
		doc := svg.LineChart("Figure 5: memory-kernel performance vs thread blocks",
			"concurrent thread blocks", curves, 700, 420)
		return exp.RenderFigure5(rows), doc, nil
	case "fig7":
		rows, err := h.Figure7()
		if err != nil {
			return "", "", err
		}
		doc := barChart("Figure 7: performance mode speedup", 1200, 460, rows,
			func(r exp.Fig7Row) (string, []float64) {
				return r.Kernel, []float64{r.Equalizer, r.SMBoost, r.MemBoost}
			}, "equalizer", "SM boost", "mem boost")
		return exp.RenderFigure7(rows), doc, nil
	case "fig8":
		rows, err := h.Figure8()
		if err != nil {
			return "", "", err
		}
		doc := barChart("Figure 8: energy mode performance", 1200, 460, rows,
			func(r exp.Fig8Row) (string, []float64) {
				return r.Kernel, []float64{r.Equalizer, r.SMLow, r.MemLow}
			}, "equalizer", "SM low", "mem low")
		return exp.RenderFigure8(rows), doc, nil
	case "fig9":
		rows, err := h.Figure9()
		if err != nil {
			return "", "", err
		}
		return exp.RenderFigure9(rows), "", nil
	case "fig10":
		rows, err := h.Figure10()
		if err != nil {
			return "", "", err
		}
		doc := barChart("Figure 10: Equalizer vs DynCTA vs CCWS", 800, 420, rows,
			func(r exp.Fig10Row) (string, []float64) {
				return r.Kernel, []float64{r.DynCTA, r.CCWS, r.EqualizerPf}
			}, "dynCTA", "CCWS", "equalizer")
		return exp.RenderFigure10(rows), doc, nil
	case "fig11a":
		d, err := h.Figure11a()
		if err != nil {
			return "", "", err
		}
		return exp.RenderFigure11a(d), "", nil
	case "fig11b":
		d, err := h.Figure11b()
		if err != nil {
			return "", "", err
		}
		eq := series(d.Equalizer, func(p core.TracePoint) []float64 {
			return []float64{p.Counters.Active, p.Counters.Waiting}
		}, "equalizer active warps", "equalizer waiting")
		dyn := series(d.DynCTA, func(p gpu.EpochPoint) []float64 {
			return []float64{p.Active}
		}, "dynCTA active warps")
		doc := svg.LineChart("Figure 11b: spmv concurrency adaptation", "epoch", append(eq, dyn...), 900, 420)
		return exp.RenderFigure11b(d), doc, nil
	case "summary":
		s, err := h.Summarize()
		if err != nil {
			return "", "", err
		}
		return exp.RenderSummary(s), "", nil
	case "ablation":
		out, err := h.Ablations()
		return out, "", err
	case "concurrent":
		out, err := h.ConcurrentStudy()
		return out, "", err
	case "boost":
		rows, err := h.BoostComparison()
		if err != nil {
			return "", "", err
		}
		return exp.RenderBoostComparison(rows), "", nil
	default:
		return "", "", fmt.Errorf("unknown experiment %q", name)
	}
}

// series transposes rows into one chart series per name: vals(r)[i] is row
// r's point in series i.
func series[R any](rows []R, vals func(R) []float64, names ...string) []svg.Series {
	out := make([]svg.Series, len(names))
	for i, n := range names {
		out[i].Name = n
	}
	for _, r := range rows {
		for i, v := range vals(r) {
			out[i].Values = append(out[i].Values, v)
		}
	}
	return out
}

// barChart draws one labelled bar group per row, one bar per series name.
func barChart[R any](title string, w, ht int, rows []R, row func(R) (string, []float64), names ...string) string {
	var labels []string
	for _, r := range rows {
		label, _ := row(r)
		labels = append(labels, label)
	}
	vals := func(r R) []float64 { _, v := row(r); return v }
	return svg.BarChart(title, labels, series(rows, vals, names...), w, ht)
}

// runJSON emits the structured form of the data-bearing experiments.
func runJSON(h *exp.Harness, name string, w io.Writer) error {
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
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

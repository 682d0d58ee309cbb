// Command eqsim runs one kernel (all its invocations) on the simulated GPU
// under a chosen policy and prints timing, energy and counter statistics.
//
// Usage:
//
//	eqsim -kernel kmn -policy equalizer-perf
//	eqsim -kernel lbm -policy static -sm high -mem low
//	eqsim -kernel bfs-2 -policy equalizer-energy -v
//	eqsim -kernel spmv -policy equalizer-perf -trace t.txt              # SM 0 epoch table
//	eqsim -kernel spmv -policy equalizer-perf -trace t.csv -trace-format csv -trace-sm all
//	eqsim -kernel spmv -policy dynCTA -trace t.json -trace-format chrome # Perfetto
//	eqsim -kernel spmv -policy equalizer-perf -set disablefrequency=1    # Figure 11b's cell
//
// Policies: baseline (no tuning, at -sm/-mem), static and blocks (at
// -sm/-mem with the -blocks pin), dynCTA, ccws, equalizer-energy,
// equalizer-perf; names are case-insensitive. The flags are parsed by
// exp.ParseSetup, the same vocabulary eqsimd's /v1/run accepts, so a cell
// simulates identically through either front end.
//
// -trace FILE writes the run's trace. With -trace-format table (the
// default), json or csv it holds an equalizer-* policy's per-epoch counters
// for SM -trace-sm (default 0, or all): one table block or JSON document per
// invocation, one CSV with an inv column. With chrome it is one Chrome
// trace-event document of the whole run under any policy, for Perfetto.
//
// Results persist in the same disk cache eqbench uses (-cache-dir, default
// .eqcache): rerunning an already-simulated configuration, -set overrides
// included (the actuator switches too), is instant. -no-cache runs without
// the disk cache. -v, -metrics and -trace force a live simulation: they need
// per-invocation results or machine state the cache does not hold. -json
// emits the result as {kernel, policy, totals} for scripting.
package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
	"equalizer/internal/telemetry"
)

// traceEvents is the probe-bus capacity of a chrome trace, far above the
// 1 980 span events of the longest run, all 12 invocations of bfs-2.
const traceEvents = 1 << 19

// jsonResult is the -json output shape; Totals marshals identically to the
// payload eqsimd serves, so `eqsim -json | jq .totals` byte-compares against
// the service response.
type jsonResult struct {
	Kernel string     `json:"kernel"`
	Policy string     `json:"policy"`
	Totals exp.Totals `json:"totals"`
}

// options carries the parsed command line; run is kept free of flag and
// os.Exit machinery so tests can drive it directly. An empty traceFormat or
// traceSM means the flag was not given.
type options struct {
	kernel, policy, sm, mem     string
	blocks                      int
	verbose, list, noCache      bool
	asJSON                      bool
	cacheDir, metrics, set      string
	trace, traceFormat, traceSM string
}

func main() {
	var (
		opts       options
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.StringVar(&opts.kernel, "kernel", "cutcp", "kernel name from Table II (e.g. kmn, lbm, bfs-2)")
	flag.StringVar(&opts.policy, "policy", "baseline", "baseline | static | blocks | dynCTA | ccws | equalizer-energy | equalizer-perf")
	flag.StringVar(&opts.sm, "sm", "normal", "SM VF level for baseline/static/blocks: low | normal | high")
	flag.StringVar(&opts.mem, "mem", "normal", "memory VF level for baseline/static/blocks: low | normal | high")
	flag.IntVar(&opts.blocks, "blocks", 0, "static/blocks per-SM block limit (0 = kernel maximum)")
	flag.BoolVar(&opts.verbose, "v", false, "print per-invocation results")
	flag.BoolVar(&opts.list, "list", false, "list all kernels and exit")
	flag.StringVar(&opts.cacheDir, "cache-dir", ".eqcache", "persistent result-cache directory")
	flag.BoolVar(&opts.noCache, "no-cache", false, "disable the persistent result cache")
	flag.StringVar(&opts.metrics, "metrics", "", "write machine counters to this file after the run")
	flag.StringVar(&opts.set, "set", "", "comma-separated config overrides, e.g. numsms=8,l1.sets=32,epochcycles=2048,disablefrequency=1")
	flag.BoolVar(&opts.asJSON, "json", false, "emit the result as JSON ({kernel, policy, totals})")
	flag.StringVar(&opts.trace, "trace", "", "write the run's execution trace to this file")
	flag.StringVar(&opts.traceFormat, "trace-format", "", "trace format: table (default) | json | csv | chrome")
	flag.StringVar(&opts.traceSM, "trace-sm", "", "SM index to trace, or 'all' (table/json/csv; default 0)")
	flag.Parse()

	stopProfiling, err := telemetry.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	if err := run(opts, os.Stdout); err != nil {
		fatal(err)
	}
	if err := stopProfiling(); err != nil {
		fatal(err)
	}
}

// run executes one eqsim command line, writing its report to stdout.
func run(opts options, stdout io.Writer) error {
	if opts.list {
		fmt.Fprintf(stdout, "%-10s %-12s %-12s %7s %5s %6s %5s\n",
			"kernel", "app", "category", "frac", "blk", "wcta", "invs")
		for _, k := range kernels.All() {
			fmt.Fprintf(stdout, "%-10s %-12s %-12s %7.2f %5d %6d %5d\n",
				k.Name, k.App, k.Category, k.Fraction, k.BlocksPerSM, k.Wcta, k.Invocations)
		}
		return nil
	}
	if opts.trace == "" && (opts.traceFormat != "" || opts.traceSM != "") {
		return fmt.Errorf("-trace-format and -trace-sm need -trace")
	}

	k, err := kernels.ByName(opts.kernel)
	if err != nil {
		return err
	}
	gpuCfg, eqCfg := config.Default(), config.DefaultEqualizer()
	if err := config.ApplyOverrides(&gpuCfg, &eqCfg, opts.set); err != nil {
		return err
	}
	setup, pol, name, err := buildPolicy(opts.policy, opts.sm, opts.mem, opts.blocks, eqCfg)
	if err != nil {
		return err
	}

	// A traced run checks its flags before it simulates or creates the
	// file. eq is the Equalizer whose per-epoch rows are written (it
	// records, as exp.NewPolicy builds every Equalizer); it stays nil for
	// chrome traces.
	format := cmp.Or(opts.traceFormat, "table")
	var (
		eq    *core.Equalizer
		sms   []int
		trace *os.File
	)
	if opts.trace != "" {
		switch format {
		case "chrome":
		case "table", "json", "csv":
			var ok bool
			if eq, ok = pol.(*core.Equalizer); !ok {
				return fmt.Errorf("-trace-format %s needs an equalizer policy; %s records no per-epoch trace", format, name)
			}
		default:
			return fmt.Errorf("unknown -trace-format %q (want table, json, csv or chrome)", format)
		}
		if sms, err = selectSMs(cmp.Or(opts.traceSM, "0"), gpuCfg.NumSMs); err != nil {
			return err
		}
		if trace, err = os.Create(opts.trace); err != nil {
			return err
		}
		defer trace.Close()
	}

	var tot exp.Totals
	// -v, -metrics and -trace need a live machine (per-invocation results,
	// counter state, probe events); everything else routes through the exp
	// harness, whose key covers the -set machine model and Equalizer
	// parameters, so results are served from and stored to the shared disk
	// cache.
	if !opts.verbose && opts.metrics == "" && trace == nil {
		var cache *runcache.Cache
		if !opts.noCache {
			if cache, err = runcache.Open(opts.cacheDir); err != nil {
				return err
			}
		}
		h := exp.New(exp.Options{GPU: &gpuCfg, Cache: cache, Parallelism: 1})
		if tot, err = h.Run(k, setup); err != nil {
			return err
		}
		if st := h.SchedulerStats(); st.CacheHits > 0 {
			fmt.Fprintf(os.Stderr, "eqsim: result served from cache %s\n", cache.Dir())
		}
	} else {
		m, err := gpu.New(gpuCfg, power.Default(), pol)
		if err != nil {
			return err
		}
		m.SetLevelsImmediate(setup.SM, setup.Mem)
		var bus *telemetry.Bus
		if trace != nil && format == "chrome" {
			bus = telemetry.NewBus(traceEvents, telemetry.MaskSpans)
			m.AttachTelemetry(bus)
		}
		// each writes an invocation's epoch rows before the next Reset
		// clears them.
		var traceErr error
		each := func(inv int, res gpu.Result) {
			if opts.verbose {
				fmt.Fprintf(stdout, "inv %2d: %9d cycles  %8.3f ms  %8.4f J  IPC %.3f  L1 %.2f  DRAM %.2f\n",
					inv+1, res.SMCycles, float64(res.TimePS)/1e9, res.EnergyJ(),
					res.IPC, res.L1HitRate, res.DRAMUtil)
			}
			if eq == nil || traceErr != nil {
				return
			}
			switch format {
			case "table":
				traceErr = writeTable(trace, k.Name, inv, eq.Mode(), res.SMCycles, res.EnergyJ(), eq, sms)
			case "json":
				traceErr = writeJSON(trace, k.Name, inv, eq.Mode(), eq, sms)
			case "csv":
				traceErr = writeCSV(trace, inv, eq, sms)
			}
		}
		if tot, err = exp.Simulate(context.Background(), m, k, each); err != nil {
			return err
		}
		if traceErr != nil {
			return traceErr
		}
		if bus != nil {
			if bus.Dropped() > 0 {
				fmt.Fprintf(os.Stderr, "eqsim: warning: trace ring dropped %d of its %d events\n",
					bus.Dropped(), traceEvents)
			}
			if err := telemetry.WriteChromeTrace(trace, bus.Events(), telemetry.ChromeOptions{
				NumSMs: m.NumSMs(),
				Kernel: k.Name,
			}); err != nil {
				return err
			}
		}
		if trace != nil {
			if err := trace.Close(); err != nil {
				return err
			}
		}
		if opts.metrics != "" {
			if err := writeMetrics(m, opts.metrics); err != nil {
				return err
			}
		}
	}

	if opts.asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonResult{Kernel: k.Name, Policy: name, Totals: tot})
	}
	fmt.Fprintf(stdout, "kernel %-8s policy %-24s time %10.3f ms  energy %9.4f J  mean power %6.1f W\n",
		k.Name, name, float64(tot.TimePS)/1e9, tot.EnergyJ, tot.EnergyJ/(float64(tot.TimePS)*1e-12))
	return nil
}

// buildPolicy parses eqsim's policy flags into the cell to run, with eq as
// an Equalizer policy's runtime parameters, the policy driving it (nil when
// the run is untuned) and the label eqsim prints.
func buildPolicy(policyName, sm, mem string, blocks int, eq config.Equalizer) (exp.Setup, gpu.Policy, string, error) {
	setup, err := exp.ParseSetup(policyName, sm, mem, blocks)
	if err != nil {
		return exp.Setup{}, nil, "", err
	}
	setup = setup.WithEqualizer(eq)
	pol := exp.NewPolicy(setup)
	name := "baseline"
	if p := strings.ToLower(policyName); pol != nil {
		name = pol.Name()
	} else if setup != exp.Baseline() || p == "static" || p == "blocks" {
		name = fmt.Sprintf("static(sm=%s,mem=%s,blocks=%d)", sm, mem, blocks)
	}
	return setup, pol, name, nil
}

// writeMetrics snapshots the machine's counters into a registry and writes
// it in Prometheus text form.
func writeMetrics(m *gpu.Machine, path string) error {
	reg := telemetry.NewRegistry()
	m.Collect(reg)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WritePrometheus(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eqsim:", err)
	os.Exit(1)
}

// selectSMs resolves the -trace-sm flag to a list of SM indices.
func selectSMs(spec string, numSMs int) ([]int, error) {
	if spec == "all" {
		sms := make([]int, numSMs)
		for i := range sms {
			sms[i] = i
		}
		return sms, nil
	}
	i, err := strconv.Atoi(spec)
	if err != nil {
		return nil, fmt.Errorf("bad -trace-sm %q (want an SM index or 'all')", spec)
	}
	if i < 0 || i >= numSMs {
		return nil, fmt.Errorf("-trace-sm %d out of range (machine has %d SMs)", i, numSMs)
	}
	return []int{i}, nil
}

// writeTable writes one invocation's table block. The buffer keeps the first
// write error, which Flush returns.
func writeTable(dst io.Writer, kernel string, inv int, mode core.Mode,
	cycles int64, energyJ float64, eq *core.Equalizer, sms []int) error {
	w := bufio.NewWriter(dst)
	fmt.Fprintf(w, "# %s inv %d mode %s: %d cycles, %.4f J\n",
		kernel, inv, mode, cycles, energyJ)
	for _, i := range sms {
		if len(sms) > 1 {
			fmt.Fprintf(w, "# SM %d\n", i)
		}
		fmt.Fprintf(w, "%5s %8s %8s %8s %8s %7s %7s %7s\n",
			"epoch", "active", "waiting", "xalu", "xmem", "blocks", "smVF", "memVF")
		for _, p := range eq.TraceSM(i) {
			fmt.Fprintf(w, "%5d %8.1f %8.1f %8.1f %8.1f %7d %7s %7s\n",
				p.Epoch, p.Counters.Active, p.Counters.Waiting, p.Counters.XALU,
				p.Counters.XMEM, p.TargetBlocks, p.SMLevel, p.MemLevel)
		}
	}
	return w.Flush()
}

// writeCSV writes one invocation's rows, preceded by the header when inv is
// the first invocation.
func writeCSV(w io.Writer, inv int, eq *core.Equalizer, sms []int) error {
	cw := csv.NewWriter(w)
	if inv == 0 {
		if err := cw.Write([]string{
			"inv", "sm", "epoch", "active", "waiting", "xalu", "xmem", "blocks", "sm_vf", "mem_vf",
		}); err != nil {
			return err
		}
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	for _, i := range sms {
		for _, p := range eq.TraceSM(i) {
			if err := cw.Write([]string{
				strconv.Itoa(inv), strconv.Itoa(i), strconv.Itoa(p.Epoch),
				f(p.Counters.Active), f(p.Counters.Waiting),
				f(p.Counters.XALU), f(p.Counters.XMEM),
				strconv.Itoa(p.TargetBlocks), p.SMLevel.String(), p.MemLevel.String(),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonTrace is the -trace-format json document of one invocation.
type jsonTrace struct {
	Kernel     string       `json:"kernel"`
	Invocation int          `json:"invocation"`
	Mode       string       `json:"mode"`
	SMs        []jsonSMRows `json:"sms"`
}

type jsonSMRows struct {
	SM     int       `json:"sm"`
	Epochs []jsonRow `json:"epochs"`
}

type jsonRow struct {
	Epoch   int     `json:"epoch"`
	Active  float64 `json:"active"`
	Waiting float64 `json:"waiting"`
	XALU    float64 `json:"xalu"`
	XMEM    float64 `json:"xmem"`
	Blocks  int     `json:"blocks"`
	SMVF    string  `json:"sm_vf"`
	MemVF   string  `json:"mem_vf"`
}

func writeJSON(w io.Writer, kernel string, inv int, mode core.Mode,
	eq *core.Equalizer, sms []int) error {
	doc := jsonTrace{Kernel: kernel, Invocation: inv, Mode: mode.String()}
	for _, i := range sms {
		rows := jsonSMRows{SM: i, Epochs: []jsonRow{}}
		for _, p := range eq.TraceSM(i) {
			rows.Epochs = append(rows.Epochs, jsonRow{
				Epoch:   p.Epoch,
				Active:  p.Counters.Active,
				Waiting: p.Counters.Waiting,
				XALU:    p.Counters.XALU,
				XMEM:    p.Counters.XMEM,
				Blocks:  p.TargetBlocks,
				SMVF:    p.SMLevel.String(),
				MemVF:   p.MemLevel.String(),
			})
		}
		doc.SMs = append(doc.SMs, rows)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Command eqtrace runs one kernel under Equalizer and exports the execution
// trace — the raw data behind the adaptivity studies of Figures 2b and 11b.
//
// Usage:
//
//	eqtrace -kernel spmv                          # SM 0 epoch table
//	eqtrace -kernel mri-g-1 -sm all -format csv   # every SM, CSV
//	eqtrace -kernel spmv -format chrome -o t.json # Chrome trace (Perfetto)
//	eqtrace -requests dump.json -o t.json         # eqsimd request traces
//
// Formats: table (per-epoch counters), json, csv, and chrome — the Chrome
// trace-event format, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing, showing kernel/epoch spans, per-SM block residency, CTA
// pausing and VF-level transitions across all SMs.
//
// -requests converts a saved eqsimd /debug/requests JSON dump into a Chrome
// trace instead of running a simulation: each request becomes a span with
// its queue/run/encode stages nested beneath it.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
	"equalizer/internal/service"
	"equalizer/internal/telemetry"
)

// options carries the parsed command line; run is kept free of flag and
// os.Exit machinery so tests can drive it directly.
type options struct {
	kernel   string
	mode     string
	inv      int
	format   string
	sm       string
	events   int
	requests string
}

func main() {
	var (
		opts       options
		out        = flag.String("o", "", "output file (default stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.StringVar(&opts.kernel, "kernel", "spmv", "kernel to trace")
	flag.StringVar(&opts.mode, "mode", "performance", "energy | performance")
	flag.IntVar(&opts.inv, "inv", 0, "invocation to trace (0-based)")
	flag.StringVar(&opts.format, "format", "table", "table | json | csv | chrome")
	flag.StringVar(&opts.sm, "sm", "0", "SM index to trace, or 'all' (table/json/csv)")
	flag.IntVar(&opts.events, "events", 1<<19, "probe-bus capacity for chrome traces")
	flag.StringVar(&opts.requests, "requests", "",
		"convert this eqsimd /debug/requests JSON dump to a Chrome trace instead of simulating")
	flag.Parse()

	stop, err := telemetry.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := run(opts, w); err != nil {
		fatal(err)
	}
	if err := stop(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eqtrace:", err)
	os.Exit(1)
}

// run executes one invocation and writes the trace in the requested format.
func run(opts options, w io.Writer) error {
	if opts.requests != "" {
		return convertRequests(opts.requests, w)
	}
	k, err := kernels.ByName(opts.kernel)
	if err != nil {
		return err
	}
	if opts.inv < 0 || opts.inv >= k.Invocations {
		return fmt.Errorf("-inv %d out of range: %s has invocations [0,%d)", opts.inv, k.Name, k.Invocations)
	}
	var mode core.Mode
	switch opts.mode {
	case "energy":
		mode = core.EnergyMode
	case "performance", "perf":
		mode = core.PerformanceMode
	default:
		return fmt.Errorf("unknown -mode %q (want energy or performance)", opts.mode)
	}
	switch opts.format {
	case "table", "json", "csv", "chrome":
	default:
		return fmt.Errorf("unknown -format %q (want table, json, csv or chrome)", opts.format)
	}

	eq := core.New(mode)
	eq.Record = true
	machine := gpu.MustNew(config.Default(), power.Default(), eq)

	sms, err := selectSMs(opts.sm, machine.NumSMs())
	if err != nil {
		return err
	}

	var bus *telemetry.Bus
	if opts.format == "chrome" {
		bus = telemetry.NewBus(opts.events, telemetry.MaskSpans)
		machine.AttachTelemetry(bus)
	}

	res, err := machine.RunKernel(k, opts.inv)
	if err != nil {
		return err
	}

	switch opts.format {
	case "table":
		writeTable(w, k.Name, opts.inv, mode, res.SMCycles, res.EnergyJ(), eq, sms)
	case "csv":
		return writeCSV(w, eq, sms)
	case "json":
		return writeJSON(w, k.Name, opts.inv, mode, eq, sms)
	case "chrome":
		if bus.Dropped() > 0 {
			fmt.Fprintf(os.Stderr,
				"eqtrace: warning: ring buffer dropped %d events; rerun with a larger -events\n",
				bus.Dropped())
		}
		return telemetry.WriteChromeTrace(w, bus.Events(), telemetry.ChromeOptions{
			NumSMs: machine.NumSMs(),
			Kernel: k.Name,
		})
	}
	return nil
}

// convertRequests renders a saved eqsimd /debug/requests dump (a JSON array
// of request traces) as a Chrome trace-event document.
func convertRequests(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var traces []service.RequestTrace
	if err := json.Unmarshal(data, &traces); err != nil {
		return fmt.Errorf("%s: not a /debug/requests dump: %w", path, err)
	}
	if len(traces) == 0 {
		return fmt.Errorf("%s: no request traces", path)
	}
	spans, opts := service.TracesToChromeSpans(traces)
	return telemetry.WriteChromeSpans(w, spans, opts)
}

// selectSMs resolves the -sm flag to a list of SM indices.
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
		return nil, fmt.Errorf("bad -sm %q (want an SM index or 'all')", spec)
	}
	if i < 0 || i >= numSMs {
		return nil, fmt.Errorf("-sm %d out of range (machine has %d SMs)", i, numSMs)
	}
	return []int{i}, nil
}

func writeTable(w io.Writer, kernel string, inv int, mode core.Mode,
	cycles int64, energyJ float64, eq *core.Equalizer, sms []int) {
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
}

func writeCSV(w io.Writer, eq *core.Equalizer, sms []int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"sm", "epoch", "active", "waiting", "xalu", "xmem", "blocks", "sm_vf", "mem_vf",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	for _, i := range sms {
		for _, p := range eq.TraceSM(i) {
			if err := cw.Write([]string{
				strconv.Itoa(i), strconv.Itoa(p.Epoch),
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

// jsonTrace is the -format json document.
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

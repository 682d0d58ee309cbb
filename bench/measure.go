package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"equalizer/internal/exp"
)

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary; BENCHMARK.json repeats them with bounds and a test keeps the
// two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload when tracing is off. fail_ratio is not among them because it is 0
// on a healthy tree and a bound is a share of the median: it travels as the
// result's attempted/failed counts and is printed beside the metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"sim_kcycles_per_s", "kcyc/s"},
	{"sim_cycles", "cycles"},
	{"sim_energy_uj", "uJ"},
	{"paper_gap_pp", "pp"},
	{"peak_rss_mb", "MB"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostClass identifies the kind of machine a result came from. Results from
// different classes are never compared.
type hostClass struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() hostClass {
	return hostClass{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// commitID names the tree under test; "unknown" outside a git checkout.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runResult is everything one workload run produced. It is written to
// <out>/<workload>.trace<0|1>.json; the contract line on standard output is
// a projection of it.
type runResult struct {
	Workload string    `json:"workload"`
	Trace    bool      `json:"trace"`
	Smoke    bool      `json:"smoke"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Host     hostClass `json:"host"`
	Commit   string    `json:"commit"`
	Scale    float64   `json:"scale"`

	Passes    int     `json:"passes"`
	OpSamples int     `json:"op_samples"`
	TailPct   float64 `json:"tail_percentile"`
	ElapsedS  float64 `json:"elapsed_s"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Failures  []string `json:"failures,omitempty"`

	// Metrics holds the end-to-end metrics (always) and, for a traced run,
	// the per-layer ones.
	Metrics map[string]metricValue `json:"metrics"`
	// PassOpsPerS is the rate of each timed pass, for the record.
	PassOpsPerS []float64 `json:"pass_ops_per_s"`
	// Digests maps a cell to the sha256 of its Totals, for the checks across
	// workloads and runs.
	Digests map[string]string `json:"digests"`
	// Spans are the traced pass's and the peel's spans.
	Spans []span `json:"spans,omitempty"`
}

// contractLine is the last line of a workload run's standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// defs is the metric set the run answers for: the end-to-end metrics without
// tracing, the per-layer metrics with it.
func (res *runResult) defs() []metricDef {
	if res.Trace {
		return perLayer
	}
	return endToEnd
}

// line projects the result onto the driver's contract.
func (res *runResult) line() contractLine {
	defs := res.defs()
	out := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = res.Metrics[d.Name]
	}
	return out
}

// runWorkload sets up, measures and checks one workload.
func runWorkload(cfg runConfig) (*runResult, error) {
	begin := time.Now()
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", r.w.name, err)
	}
	setupS := time.Since(begin).Seconds()

	// Without tracing, whole passes repeat until --seconds have gone by. The
	// traced run is one pass with spans off and one with spans on: their
	// ratio is the tracing overhead, and the peel below supplies the layers.
	var passes []passResult
	var traced passResult
	measure := time.Now()
	for {
		passes = append(passes, r.pass())
		if cfg.smoke || cfg.trace || time.Since(measure).Seconds() >= cfg.seconds {
			break
		}
	}
	if cfg.trace {
		r.rec = r.trace
		traced = r.pass()
		r.rec = nil
	}

	res := &runResult{
		Workload: r.w.name, Trace: cfg.trace, Smoke: cfg.smoke, Seed: cfg.seed, Seconds: cfg.seconds,
		Host: thisHost(), Commit: commitID(), Scale: r.w.scale,
		Passes: len(passes), TailPct: r.w.tailPct,
		Metrics: map[string]metricValue{}, Digests: map[string]string{},
	}
	first := passes[0].Totals
	simPasses := passes
	if r.w.kind == kindSvcWarm {
		// Nothing simulates in a warm pass: the simulated statistics and the
		// simulation rate are those of the fill that made the cells hot.
		first = r.warm.fill.Totals
		simPasses = []passResult{r.warm.fill}
		res.Attempted += r.warm.fill.Ops
	}
	if !cfg.smoke {
		r.checkSignature(first)
	}
	if err := r.endToEnd(res, setupS, passes, simPasses, first); err != nil {
		return nil, err
	}
	if cfg.trace {
		res.Attempted += traced.Ops
		if err := r.layers(res, passes[0], traced); err != nil {
			return nil, err
		}
		res.Spans = r.trace.spans
	}
	for ci, d := range r.want {
		res.Digests[r.cells[ci].String()] = d
	}
	res.Failed = r.fails.count()
	res.Failures = r.fails.first
	if res.Failed > res.Attempted {
		res.Attempted = res.Failed
	}
	res.Correct = res.Failed == 0
	res.ElapsedS = time.Since(begin).Seconds()
	return res, nil
}

// endToEnd fills in the end-to-end metrics. The simulated statistics are sums
// in declaration order over one pass and must repeat exactly. The host-time
// metrics are taken from the run's quietest samples (see quiet).
func (r *runner) endToEnd(res *runResult, setupS float64, passes, simPasses []passResult, first []exp.Totals) error {
	for _, p := range passes {
		res.Attempted += p.Ops
		res.PassOpsPerS = append(res.PassOpsPerS, float64(p.Ops)/p.WallS)
	}
	opMS, wallS := r.quiet(passes)
	_, simWallS := r.quiet(simPasses)
	res.OpSamples = len(opMS)

	var cycles int64
	var energyJ float64
	for _, t := range first {
		cycles += t.SMCycles
		energyJ += t.EnergyJ
	}
	gap, err := paperGapPP(r.cells, first)
	if err != nil {
		return fmt.Errorf("%s: paper gap: %w", r.w.name, err)
	}
	return res.fill(endToEnd, map[string]float64{
		"setup_s":           setupS,
		"ops_per_s":         float64(passes[0].Ops) / wallS,
		"op_p50_ms":         median(opMS),
		"op_tail_ms":        percentile(opMS, r.w.tailPct),
		"sim_kcycles_per_s": float64(cycles) / simWallS / 1e3,
		"sim_cycles":        float64(cycles),
		"sim_energy_uj":     sig9(energyJ * 1e6),
		"paper_gap_pp":      sig9(gap),
		"peak_rss_mb":       peakRSSMB(),
	})
}

// fill stores the measured values of the given metric set with their units;
// a metric of the set that was not measured is an error in the benchmark.
func (res *runResult) fill(defs []metricDef, measured map[string]float64) error {
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok {
			return fmt.Errorf("bench: %s: metric %s was not measured", res.Workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// quiet reduces a run's passes to its least disturbed samples: the op times
// and the wall time of one pass as the host would run it undisturbed.
//
// The sizing host shares its memory system with other guests: the simulator's
// pace swings by 20 % over seconds to minutes while a pure ALU loop beside it
// stays within 3 %, and the disturbance only ever slows a sample down. The
// fastest sample of each kind therefore repeats from run to run four times
// more closely than the median one (README, "Evidence for the bounds"), and
// it is the fastest that is reported — at the finest grain that can be seen
// from outside. In a sim workload ops run one after the other, so each cell
// is timed at its fastest execution across the passes and the pass is their
// sum. On the pool-driven workloads ops overlap, so the grain is the pass and
// the fastest pass is taken whole.
func (r *runner) quiet(passes []passResult) (opMS []float64, wallS float64) {
	if r.w.kind == kindSim {
		opMS = slices.Clone(passes[0].OpMS)
		for _, p := range passes[1:] {
			for ci, ms := range p.OpMS {
				opMS[ci] = min(opMS[ci], ms)
			}
		}
		for _, ms := range opMS {
			wallS += ms / 1000
		}
		return opMS, wallS
	}
	best := passes[0]
	for _, p := range passes[1:] {
		if p.WallS < best.WallS {
			best = p
		}
	}
	opMS = best.OpMS
	if len(opMS) == 0 {
		// Cells of a grid run inside Prefetch and cannot be timed one by one
		// from outside: the op time is the pass's wall time per cell.
		opMS = []float64{best.WallS * 1000 / float64(best.Ops)}
	}
	return opMS, best.WallS
}

// sig9 rounds to nine significant digits, which is what the exact simulated
// energy is compared at.
func sig9(v float64) float64 {
	out, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 9, 64), 64)
	if err != nil {
		return v
	}
	return out
}

// checkSignature verifies that a sim workload still stresses the resource it
// is named after; a workload that drifted would make every "should not move"
// prediction in the README meaningless.
func (r *runner) checkSignature(totals []exp.Totals) {
	if r.w.kind != kindSim {
		return
	}
	for i := 0; i+2 < len(totals); i += 3 {
		base, energy, perf := totals[i], totals[i+1], totals[i+2]
		k := r.cells[i].Kernel.Name
		switch r.w.name {
		case "sim_compute":
			if base.DRAMUtil > 0.10 {
				r.fails.add("signature: %s DRAM utilisation %.3f is not compute-bound", k, base.DRAMUtil)
			}
		case "sim_memory":
			if base.DRAMUtil < 0.50 {
				r.fails.add("signature: %s DRAM utilisation %.3f is not bandwidth-bound", k, base.DRAMUtil)
			}
		case "sim_cache":
			if base.L1Hit > 0.10 || energy.L1Hit < 0.50 || perf.L1Hit < 0.50 {
				r.fails.add("signature: %s L1 hit %.3f -> %.3f/%.3f is not cache-thrashing relieved by Equalizer",
					k, base.L1Hit, energy.L1Hit, perf.L1Hit)
			}
		}
	}
}

// peakRSSMB is the process's peak resident set (VmHWM); where /proc is not
// available it falls back to the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resultPath is where a workload run's result is stored under dir.
func resultPath(dir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", workload, t))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// print writes every metric by name with its unit, then the contract line.
func (res *runResult) print(w io.Writer) error {
	fmt.Fprintf(w, "%s  seed=%d passes=%d op_samples=%d tail=p%g elapsed=%.1fs\n",
		res.Workload, res.Seed, res.Passes, res.OpSamples, res.TailPct, res.ElapsedS)
	for _, d := range res.defs() {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "  %-34s %16.6g ratio (%d of %d ops)\n", "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	b, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

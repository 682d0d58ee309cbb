package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// benchSpec mirrors BENCHMARK.json, the one place run length and regression
// bounds are fixed.
type benchSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

// boundSpec is one metric of BENCHMARK.json. Bound is the share of the
// baseline's median by which the metric may get worse.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory — the repository
// root when run as documented — or from its parent, which is where it is for
// `go test` in bench/.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	err := readJSON("BENCHMARK.json", &spec)
	if errors.Is(err, os.ErrNotExist) {
		err = readJSON(filepath.Join("..", "BENCHMARK.json"), &spec)
	}
	if err != nil {
		return spec, fmt.Errorf("BENCHMARK.json (run from the repository root): %w", err)
	}
	return spec, nil
}

// resultFile is what `go run ./bench` leaves in <out>/result.json and what
// -compare reads: one or more sets of runs from one host class.
type resultFile struct {
	Host       hostClass   `json:"host"`
	Commit     string      `json:"commit"`
	Seed       uint64      `json:"seed"`
	RunSeconds float64     `json:"run_seconds"`
	Smoke      bool        `json:"smoke"`
	Sets       []resultSet `json:"sets"`
}

// resultSet is one run of every workload, untraced and (in the last set of
// a default invocation) traced.
type resultSet struct {
	Untraced map[string]*runResult `json:"untraced,omitempty"`
	Traced   map[string]*runResult `json:"traced,omitempty"`
	// Failures lists mismatches found across workloads and runs.
	Failures []string `json:"failures,omitempty"`
}

// allConfig is one invocation without -workload.
type allConfig struct {
	seed    uint64
	seconds float64
	trace   string
	smoke   bool
	repeat  int
	outDir  string
	// run executes one workload. The command re-executes itself, one child
	// process per workload, so that peak memory and set-up are the
	// workload's own; the smoke test runs them in its own process.
	run func(runConfig) (*runResult, error)
	log io.Writer
}

// childTimeout bounds one workload's child process: the untraced run is
// sized for under 30 s, the traced one peels every boundary and gets the
// driver's own limit.
func childTimeout(trace bool) time.Duration {
	if trace {
		return 180 * time.Second
	}
	return 60 * time.Second
}

// runChild re-executes this binary for one workload and reads back the result
// file it wrote. A child that does not finish in time is killed and every op
// of its pass counts as failed.
func runChild(exe string, log io.Writer) func(runConfig) (*runResult, error) {
	return func(cfg runConfig) (*runResult, error) {
		t := "0"
		if cfg.trace {
			t = "1"
		}
		args := []string{"-workload", cfg.w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t, "-out", cfg.outDir}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		limit := childTimeout(cfg.trace)
		ctx, cancel := context.WithTimeout(context.Background(), limit)
		defer cancel()
		cmd := exec.CommandContext(ctx, exe, args...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		// Everything but the contract line, which is for machines.
		lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
		for _, l := range lines[:max(0, len(lines)-1)] {
			fmt.Fprintf(log, "%s\n", l)
		}
		if ctx.Err() != nil {
			ops := cfg.w.passOps()
			return &runResult{Workload: cfg.w.name, Trace: cfg.trace, Seed: cfg.seed, Attempted: ops, Failed: ops,
				Failures: []string{fmt.Sprintf("killed after %v: every op of the pass counts as failed", limit)}}, nil
		}
		var res runResult
		if err := readJSON(resultPath(cfg.outDir, cfg.w.name, cfg.trace), &res); err != nil {
			return nil, fmt.Errorf("%s child: %v (%w)", cfg.w.name, runErr, err)
		}
		return &res, nil
	}
}

// runAll runs every workload of BENCHMARK.json: the untraced sets first, then
// the traced run, checking results across workloads and runs. It reports
// whether every operation and every check succeeded.
func runAll(c allConfig) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	if c.seconds <= 0 {
		c.seconds = float64(spec.RunSeconds)
	}
	if c.log == nil {
		c.log = os.Stdout
	}
	if c.run == nil {
		exe, err := os.Executable()
		if err != nil {
			return false, err
		}
		c.run = runChild(exe, c.log)
	}
	var ws []workload
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			return false, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", sw.Name)
		}
		ws = append(ws, w)
	}
	file := resultFile{Host: thisHost(), Commit: commitID(), Seed: c.seed, RunSeconds: c.seconds, Smoke: c.smoke}
	ok := true
	runSet := func(set *resultSet, trace bool) error {
		into := map[string]*runResult{}
		for _, w := range ws {
			res, err := c.run(runConfig{w: w, seed: c.seed, seconds: c.seconds, trace: trace, smoke: c.smoke, outDir: c.outDir})
			if err != nil {
				return err
			}
			into[w.name] = res
			if res.Failed > 0 || !res.Correct {
				ok = false
			}
		}
		if trace {
			set.Traced = into
		} else {
			set.Untraced = into
		}
		return nil
	}
	for rep := 1; rep <= max(1, c.repeat); rep++ {
		var set resultSet
		if c.trace != "1" {
			if c.repeat > 1 {
				fmt.Fprintf(c.log, "== set %d of %d\n", rep, c.repeat)
			}
			if err := runSet(&set, false); err != nil {
				return false, err
			}
		}
		if c.trace != "0" && rep == max(1, c.repeat) {
			fmt.Fprintf(c.log, "== traced run: per-layer metrics\n")
			if err := runSet(&set, true); err != nil {
				return false, err
			}
			var traced []*runResult
			for _, w := range ws {
				traced = append(traced, set.Traced[w.name])
			}
			if err := writeChrome(filepath.Join(c.outDir, "trace.json"), traced); err != nil {
				return false, err
			}
			for _, res := range traced {
				res.Spans = nil // they are in trace.json; result.json stays small
			}
			printOverhead(c.log, ws, set)
		}
		set.Failures = crossCheck(set)
		for _, f := range set.Failures {
			ok = false
			fmt.Fprintf(c.log, "FAILED: %s\n", f)
		}
		file.Sets = append(file.Sets, set)
		if c.repeat > 1 {
			one := file
			one.Sets = []resultSet{set}
			if err := writeJSON(filepath.Join(c.outDir, fmt.Sprintf("result-%d.json", rep)), one); err != nil {
				return false, err
			}
		}
	}
	if err := writeJSON(filepath.Join(c.outDir, "result.json"), file); err != nil {
		return false, err
	}
	if c.repeat > 1 {
		printRepeat(c.log, spec, file)
	}
	summary := "ok: every operation and every digest check succeeded"
	if !ok {
		summary = "FAILED: see above"
	}
	fmt.Fprintf(c.log, "== %s; results in %s\n", summary, c.outDir)
	return ok, nil
}

// crossCheck compares digests across the runs of one set. A cell simulated
// at one scale has one result, whichever workload ran it and whether or not
// spans were on: grid_cold and svc_cold and svc_warm share all 81 cells, and
// sim_cache's nine cells are grid_cold's — the default-width harness against
// the saturated pool's sequential machines, for free.
func crossCheck(set resultSet) []string {
	type seen struct{ digest, by string }
	byScale := map[float64]map[string]seen{}
	var failures []string
	visit := func(label string, res *runResult) {
		cells := byScale[res.Scale]
		if cells == nil {
			cells = map[string]seen{}
			byScale[res.Scale] = cells
		}
		names := make([]string, 0, len(res.Digests))
		for cell := range res.Digests {
			names = append(names, cell)
		}
		sort.Strings(names)
		for _, cell := range names {
			d := res.Digests[cell]
			if prev, ok := cells[cell]; !ok {
				cells[cell] = seen{d, label}
			} else if prev.digest != d {
				failures = append(failures, fmt.Sprintf("%s at scale %g: %s got %.12s, %s got %.12s",
					cell, res.Scale, label, d, prev.by, prev.digest))
			}
		}
	}
	for _, runs := range []struct {
		suffix string
		m      map[string]*runResult
	}{{"", set.Untraced}, {" (traced)", set.Traced}} {
		names := make([]string, 0, len(runs.m))
		for name := range runs.m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			visit(name+runs.suffix, runs.m[name])
		}
	}
	return failures
}

// printOverhead reports what recording spans cost, against the untraced set
// where there is one.
func printOverhead(w io.Writer, ws []workload, set resultSet) {
	for _, wl := range ws {
		t := set.Traced[wl.name]
		fmt.Fprintf(w, "  %-12s bench.trace_overhead_ratio %.3f (traced / untraced ops_per_s, one pass each)\n",
			wl.name, t.Metrics["bench.trace_overhead_ratio"].Value)
	}
}

// printRepeat prints, for every end-to-end metric of every workload, the
// median and quartiles over the sets and the spread against the bound — the
// evidence a bound is confirmed with.
func printRepeat(w io.Writer, spec benchSpec, file resultFile) {
	fmt.Fprintf(w, "== %d sets: median [q1, q3], spread (bound)\n", len(file.Sets))
	for _, sw := range spec.Workloads {
		for _, b := range spec.EndToEnd {
			xs := values(file, sw.Name, b.Name)
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-12s %-18s %14.6g [%.6g, %.6g] %s  spread %.2f%% (bound %g%%)\n",
				sw.Name, b.Name, median(xs), q1, q3, b.Unit, spread(xs)*100, b.Bound*100)
		}
	}
}

// values collects one end-to-end metric of one workload over a file's sets.
func values(file resultFile, workload, metric string) []float64 {
	var xs []float64
	for _, set := range file.Sets {
		if res := set.Untraced[workload]; res != nil {
			if v, ok := res.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

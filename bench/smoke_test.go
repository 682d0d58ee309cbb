package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"equalizer/internal/exp"
)

// The -smoke path, in this process: every workload untraced, then traced,
// with the checks across workloads, exactly as `go run ./bench -smoke` does
// it in child processes.
func TestSmokeEveryWorkloadEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	ok, err := runAll(allConfig{seed: 3, smoke: true, outDir: dir, run: runWorkload, log: &log})
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !ok {
		t.Fatalf("the smoke run reported failures:\n%s", log.String())
	}
	var file resultFile
	if err := readJSON(filepath.Join(dir, "result.json"), &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Sets) != 1 || !file.Smoke || file.Host != thisHost() {
		t.Fatalf("result.json: %d sets, smoke=%v, host %+v", len(file.Sets), file.Smoke, file.Host)
	}
	set := file.Sets[0]
	for _, w := range workloads {
		for traced, runs := range map[bool]map[string]*runResult{false: set.Untraced, true: set.Traced} {
			res := runs[w.name]
			if res == nil {
				t.Fatalf("%s (traced=%v) is missing from result.json", w.name, traced)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			// The contract line carries exactly the metrics of its mode.
			defs := res.defs()
			line := res.line()
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s (traced=%v): %d metrics on the contract line, want %d", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s (traced=%v): metric %s is missing or has unit %q", w.name, traced, d.Name, m.Unit)
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s (traced=%v): contract line does not encode: %v", w.name, traced, err)
			}
		}
		for _, d := range endToEnd {
			if v := set.Untraced[w.name].Metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want a positive number", w.name, d.Name, v)
			}
		}
	}
	// The smoke workloads share their nine cells at one scale, so every
	// workload must have produced the same simulated statistics.
	want := set.Untraced["grid_cold"].Metrics["sim_cycles"].Value
	for _, w := range workloads {
		if got := set.Untraced[w.name].Metrics["sim_cycles"].Value; got != want {
			t.Errorf("%s simulated %g cycles, grid_cold %g, for the same cells", w.name, got, want)
		}
	}

	// trace.json is a loadable Chrome trace with one process per workload.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := readJSON(filepath.Join(dir, "trace.json"), &doc); err != nil {
		t.Fatal(err)
	}
	procs, spans := 0, map[int]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procs++
			}
		case "X":
			spans[e.PID]++
		}
	}
	if procs != len(workloads) || len(spans) != len(workloads) {
		t.Errorf("trace.json has %d processes and spans in %d of them, want %d", procs, len(spans), len(workloads))
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(entries) != 0 {
		t.Errorf("scratch cache directories were left behind: %v", entries)
	}
}

// A run whose result for one cell differs from another run's must fail the
// whole command.
func TestCorruptDigestFailsTheCommand(t *testing.T) {
	canned := func(corrupt string) func(runConfig) (*runResult, error) {
		return func(cfg runConfig) (*runResult, error) {
			res := &runResult{Workload: cfg.w.name, Trace: cfg.trace, Scale: 0.25, Attempted: 3, Correct: true,
				Metrics: map[string]metricValue{},
				Digests: map[string]string{"bfs-2/baseline": "aaaa", "bfs-2/equalizer-perf": "bbbb"}}
			if cfg.w.name == corrupt && !cfg.trace {
				res.Digests["bfs-2/equalizer-perf"] = "bbbc"
			}
			return res, nil
		}
	}
	var log bytes.Buffer
	ok, err := runAll(allConfig{seed: 1, outDir: t.TempDir(), run: canned(""), log: &log})
	if err != nil || !ok {
		t.Fatalf("matching digests: ok=%v err=%v\n%s", ok, err, log.String())
	}
	log.Reset()
	ok, err = runAll(allConfig{seed: 1, outDir: t.TempDir(), run: canned("svc_cold"), log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(log.String(), "bfs-2/equalizer-perf") {
		t.Errorf("a corrupted svc_cold digest went unnoticed: ok=%v\n%s", ok, log.String())
	}
}

// Within a run, every execution of a cell is held to the first digest seen
// (the bare machine's, where one ran).
func TestRunnerCheckCountsMismatches(t *testing.T) {
	cells, err := buildCells([]string{"lavaMD"})
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{cells: cells, want: map[int]string{}}
	tot := exp.Totals{TimePS: 1000, EnergyJ: 0.5, SMCycles: 10}
	r.check(0, tot, "first")
	r.check(0, tot, "again")
	if n := r.fails.count(); n != 0 {
		t.Fatalf("identical results counted %d failures", n)
	}
	tot.SMCycles++
	r.check(0, tot, "changed")
	if n := r.fails.count(); n != 1 {
		t.Errorf("a changed result counted %d failures, want 1", n)
	}
}

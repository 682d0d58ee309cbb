// Command bench is the repository's one benchmark: six workloads from the
// bare machine to HTTP, measured end to end and layer by layer. BENCHMARK.json
// at the repository root names it, its metrics, bounds and workloads;
// bench/README.md explains every number.
//
//	go run ./bench                      every workload untraced, then traced
//	go run ./bench -workload svc_warm   one workload, in this process
//	go run ./bench -repeat 5            five untraced sets, medians and quartiles
//	go run ./bench -compare old.json new.json
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run this one workload in this process (default: all, one child process each)")
	trace := fs.String("trace", "", "0 = end-to-end metrics with tracing off, 1 = per-layer metrics from a traced run (default: both)")
	seed := fs.Uint64("seed", 1, "workload seed: shuffles op order and draws the svc_warm request mix")
	seconds := fs.Float64("seconds", 0, "how long one untraced run measures (default: run_seconds of BENCHMARK.json)")
	out := fs.String("out", "bench/out", "directory for results, traces and scratch cache directories")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	repeat := fs.Int("repeat", 1, "run this many untraced sets and print per-metric medians and quartiles")
	smoke := fs.Bool("smoke", false, "one pass, three kernels, tiny grids: exercises every path in seconds, measures nothing")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintln(os.Stderr, "bench: -trace wants 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var err error
	ok := true
	switch {
	case *compare:
		ok, err = runCompare(os.Stdout, fs.Args())
	case *workloadName != "":
		ok, err = runOne(*workloadName, *seed, *seconds, *trace == "1", *smoke, *out)
	default:
		ok, err = runAll(allConfig{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, repeat: *repeat, outDir: *out})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result; the last
// line of standard output is the contract line.
func runOne(name string, seed uint64, seconds float64, trace, smoke bool, outDir string) (bool, error) {
	w, found := workloadByName(name)
	if !found {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		spec, err := loadSpec()
		if err != nil {
			return false, err
		}
		seconds = float64(spec.RunSeconds)
	}
	res, err := runWorkload(runConfig{w: w, seed: seed, seconds: seconds, trace: trace, smoke: smoke, outDir: outDir})
	if err != nil {
		return false, err
	}
	if err := writeJSON(resultPath(outDir, name, trace), res); err != nil {
		return false, err
	}
	if trace {
		if err := writeChrome(filepath.Join(outDir, "trace."+name+".json"), []*runResult{res}); err != nil {
			return false, err
		}
	}
	if err := res.print(os.Stdout); err != nil {
		return false, err
	}
	return res.Correct, nil
}

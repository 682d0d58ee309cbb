package main

import (
	"fmt"
	"io"
	"slices"
)

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares a metric's runs on the baseline (old) and the change (new)
// under its bound. Medians decide: the change regressed when its median is
// worse than the baseline's by more than the bound. Where the run-to-run
// spread of either side is wider than the bound and the two sides' runs
// overlap, the data cannot tell a change from noise and the metric is
// unresolved, not unchanged.
func judge(b boundSpec, old, new []float64) (ratio float64, v verdict) {
	base, now := median(old), median(new)
	ratio = now / base
	worse := (now - base) / base
	if b.Better == "higher" {
		worse = -worse
	}
	wide := max(spread(old), spread(new)) > b.Bound
	overlap := slices.Min(old) <= slices.Max(new) && slices.Min(new) <= slices.Max(old)
	switch {
	case wide && overlap && len(old) > 1 && len(new) > 1:
		return ratio, verdictUnresolved
	case worse > b.Bound:
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

// failRatio is failed over attempted ops of one workload across a file's sets.
func failRatio(file resultFile, workload string) float64 {
	var failed, attempted int
	for _, set := range file.Sets {
		if res := set.Untraced[workload]; res != nil {
			failed += res.Failed
			attempted += res.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// runCompare implements -compare old.json new.json: every (workload, metric)
// ratio with its base and a verdict under BENCHMARK.json's bounds. It
// reports false on any regression or any rise in fail_ratio, and refuses
// results from different host classes.
func runCompare(w io.Writer, args []string) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("-compare wants exactly two arguments: old.json new.json")
	}
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	var old, new resultFile
	if err := readJSON(args[0], &old); err != nil {
		return false, err
	}
	if err := readJSON(args[1], &new); err != nil {
		return false, err
	}
	return compareFiles(w, spec, old, new)
}

func compareFiles(w io.Writer, spec benchSpec, old, new resultFile) (bool, error) {
	if old.Host != new.Host {
		return false, fmt.Errorf("refusing to compare results from different host classes: %+v vs %+v", old.Host, new.Host)
	}
	if old.Smoke || new.Smoke {
		return false, fmt.Errorf("refusing to compare -smoke results: they measure nothing")
	}
	fmt.Fprintf(w, "base %s (%d sets) vs %s (%d sets) on %d CPUs, %s\n",
		old.Commit, len(old.Sets), new.Commit, len(new.Sets), old.Host.NProc, old.Host.GoVersion)
	ok := true
	for _, sw := range spec.Workloads {
		for _, b := range spec.EndToEnd {
			xs, ys := values(old, sw.Name, b.Name), values(new, sw.Name, b.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			ratio, v := judge(b, xs, ys)
			if v == verdictRegressed {
				ok = false
			}
			fmt.Fprintf(w, "  %-12s %-18s %14.6g -> %-14.6g %s  ratio %.3f  bound %.3g (%s is better)  %s\n",
				sw.Name, b.Name, median(xs), median(ys), b.Unit, ratio, b.Bound, b.Better, v)
		}
		fo, fn := failRatio(old, sw.Name), failRatio(new, sw.Name)
		v := verdictOK
		if fn > fo {
			v, ok = verdictRegressed, false
		}
		fmt.Fprintf(w, "  %-12s %-18s %14.6g -> %-14.6g ratio  %s\n", sw.Name, "fail_ratio", fo, fn, v)
	}
	return ok, nil
}

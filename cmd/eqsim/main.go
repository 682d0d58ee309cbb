// Command eqsim runs one kernel (all its invocations) on the simulated GPU
// under a chosen policy and prints timing, energy and counter statistics.
//
// Usage:
//
//	eqsim -kernel kmn -policy equalizer-perf
//	eqsim -kernel lbm -policy static -sm high -mem low
//	eqsim -kernel bfs-2 -policy equalizer-energy -v
//
// Policies: baseline (no tuning, at -sm/-mem), static and blocks (at
// -sm/-mem with the -blocks pin), dynCTA, ccws, equalizer-energy,
// equalizer-perf; names are case-insensitive. The flags are parsed by
// exp.ParseSetup, the same vocabulary eqsimd's /v1/run accepts, so a cell
// simulates identically through either front end.
//
// Results persist in the same disk cache eqbench uses (-cache-dir, default
// .eqcache): rerunning an already-simulated configuration is instant.
// -no-cache, -v and -metrics force a live simulation (they need
// per-invocation results or machine state the cache does not hold), and so
// does -set: the cache key covers the machine model but not the Equalizer
// runtime parameters -set can override. -json emits the result as
// {kernel, policy, totals} for scripting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
	"equalizer/internal/telemetry"
)

// jsonResult is the -json output shape; Totals marshals identically to the
// payload eqsimd serves, so `eqsim -json | jq .totals` byte-compares against
// the service response.
type jsonResult struct {
	Kernel string     `json:"kernel"`
	Policy string     `json:"policy"`
	Totals exp.Totals `json:"totals"`
}

func main() {
	var (
		kernelName = flag.String("kernel", "cutcp", "kernel name from Table II (e.g. kmn, lbm, bfs-2)")
		policyName = flag.String("policy", "baseline", "baseline | static | blocks | dynCTA | ccws | equalizer-energy | equalizer-perf")
		smLevel    = flag.String("sm", "normal", "SM VF level for baseline/static/blocks: low | normal | high")
		memLevel   = flag.String("mem", "normal", "memory VF level for baseline/static/blocks: low | normal | high")
		blocks     = flag.Int("blocks", 0, "static/blocks per-SM block limit (0 = kernel maximum)")
		verbose    = flag.Bool("v", false, "print per-invocation results")
		list       = flag.Bool("list", false, "list all kernels and exit")
		cacheDir   = flag.String("cache-dir", ".eqcache", "persistent result-cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the persistent result cache")
		metrics    = flag.String("metrics", "", "write machine counters to this file after the run")
		set        = flag.String("set", "", "comma-separated config overrides, e.g. numsms=8,l1.sets=32,epochcycles=2048")
		asJSON     = flag.Bool("json", false, "emit the result as JSON ({kernel, policy, totals})")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	stopProfiling, err := telemetry.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}

	if *list {
		fmt.Printf("%-10s %-12s %-12s %7s %5s %6s %5s\n",
			"kernel", "app", "category", "frac", "blk", "wcta", "invs")
		for _, k := range kernels.All() {
			fmt.Printf("%-10s %-12s %-12s %7.2f %5d %6d %5d\n",
				k.Name, k.App, k.Category, k.Fraction, k.BlocksPerSM, k.Wcta, k.Invocations)
		}
		return
	}

	k, err := kernels.ByName(*kernelName)
	if err != nil {
		fatal(err)
	}

	gpuCfg, eqCfg := config.Default(), config.DefaultEqualizer()
	if err := config.ApplyOverrides(&gpuCfg, &eqCfg, *set); err != nil {
		fatal(err)
	}
	setup, pol, name, err := buildPolicy(*policyName, *smLevel, *memLevel, *blocks, eqCfg)
	if err != nil {
		fatal(err)
	}

	var tot exp.Totals
	// -v and -metrics need a live machine (per-invocation results, counter
	// state) and -set needs Equalizer parameters the cache key omits;
	// everything else routes through the exp harness so results are served
	// from and stored to the shared disk cache.
	if !*verbose && *metrics == "" && !*noCache && *set == "" {
		cache, err := runcache.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		h := exp.New(exp.Options{Cache: cache, Parallelism: 1})
		tot, err = h.Run(k, setup)
		if err != nil {
			fatal(err)
		}
		if st := h.SchedulerStats(); st.CacheHits > 0 {
			fmt.Fprintf(os.Stderr, "eqsim: result served from cache %s\n", cache.Dir())
		}
	} else {
		m, err := gpu.New(gpuCfg, power.Default(), pol)
		if err != nil {
			fatal(err)
		}
		m.SetLevelsImmediate(setup.SM, setup.Mem)
		var each func(int, gpu.Result)
		if *verbose {
			each = func(inv int, res gpu.Result) {
				fmt.Printf("inv %2d: %9d cycles  %8.3f ms  %8.4f J  IPC %.3f  L1 %.2f  DRAM %.2f\n",
					inv+1, res.SMCycles, float64(res.TimePS)/1e9, res.EnergyJ(),
					res.IPC, res.L1HitRate, res.DRAMUtil)
			}
		}
		tot, err = exp.Simulate(context.Background(), m, k, each)
		if err != nil {
			fatal(err)
		}
		if *metrics != "" {
			if err := writeMetrics(m, *metrics); err != nil {
				fatal(err)
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResult{Kernel: k.Name, Policy: name, Totals: tot}); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("kernel %-8s policy %-24s time %10.3f ms  energy %9.4f J  mean power %6.1f W\n",
			k.Name, name, float64(tot.TimePS)/1e9, tot.EnergyJ, tot.EnergyJ/(float64(tot.TimePS)*1e-12))
	}

	if err := stopProfiling(); err != nil {
		fatal(err)
	}
}

// buildPolicy parses eqsim's policy flags into the cell to run, the policy
// driving it (nil when the run is untuned) and the label eqsim prints.
func buildPolicy(policyName, sm, mem string, blocks int, eq config.Equalizer) (exp.Setup, gpu.Policy, string, error) {
	setup, err := exp.ParseSetup(policyName, sm, mem, blocks)
	if err != nil {
		return exp.Setup{}, nil, "", err
	}
	pol := exp.NewPolicy(setup, eq)
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

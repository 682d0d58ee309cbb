// Command eqsim runs one kernel (all its invocations) on the simulated GPU
// under a chosen policy and prints timing, energy and counter statistics.
//
// Usage:
//
//	eqsim -kernel kmn -policy equalizer-perf
//	eqsim -kernel lbm -policy static -sm high -mem low
//	eqsim -kernel bfs-2 -policy equalizer-energy -v
//
// Policies: baseline (no tuning), static (with -sm/-mem/-blocks), dynCTA,
// ccws, equalizer-energy, equalizer-perf.
//
// Results persist in the same disk cache eqbench uses (-cache-dir, default
// .eqcache): rerunning an already-simulated configuration is instant.
// -no-cache, -v, -metrics and -metrics-addr force a live simulation (they
// need per-invocation machine state the cache does not hold). -metrics-addr
// serves the machine counters over HTTP while the run is in progress;
// -json emits the result as {kernel, policy, totals} for scripting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/policy"
	"equalizer/internal/power"
	"equalizer/internal/service"
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
		policyName = flag.String("policy", "baseline", "baseline | static | dynCTA | ccws | equalizer-energy | equalizer-perf")
		smLevel    = flag.String("sm", "normal", "static SM VF level: low | normal | high")
		memLevel   = flag.String("mem", "normal", "static memory VF level: low | normal | high")
		blocks     = flag.Int("blocks", 0, "static per-SM block limit (0 = kernel maximum)")
		verbose    = flag.Bool("v", false, "print per-invocation results")
		list       = flag.Bool("list", false, "list all kernels and exit")
		cacheDir   = flag.String("cache-dir", ".eqcache", "persistent result-cache directory")
		noCache    = flag.Bool("no-cache", false, "disable the persistent result cache")
		metrics    = flag.String("metrics", "", "write machine counters to this file after the run")
		set        = flag.String("set", "", "comma-separated config overrides, e.g. numsms=8,l1.sets=32,epochcycles=2048")
		metricsFmt = flag.String("metrics-format", "prom", "metrics file format: prom | json")
		metricsAdr = flag.String("metrics-addr", "", "serve machine counters live over HTTP at this address during the run (forces a live simulation)")
		asJSON     = flag.Bool("json", false, "emit the result as JSON ({kernel, policy, totals})")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	switch *metricsFmt {
	case "prom", "json":
	default:
		fatal(fmt.Errorf("unknown -metrics-format %q (want prom or json)", *metricsFmt))
	}
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
	pol, static, err := buildPolicy(*policyName, *blocks, eqCfg)
	if err != nil {
		fatal(err)
	}
	sl, err := parseLevel(*smLevel)
	if err != nil {
		fatal(err)
	}
	ml, err := parseLevel(*memLevel)
	if err != nil {
		fatal(err)
	}

	var tot exp.Totals
	// -v, -metrics and -metrics-addr need a live machine (per-invocation
	// results, counter state); everything else routes through the exp harness
	// so results are served from and stored to the shared disk cache.
	// Config overrides also bypass the cache: its keys assume the default
	// machine model.
	if !*verbose && *metrics == "" && *metricsAdr == "" && !*noCache && *set == "" {
		cache, err := runcache.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		h := exp.New(exp.Options{Cache: cache, Parallelism: 1})
		tot, err = h.Run(k, setupFromFlags(*policyName, static, sl, ml, *blocks))
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
		if static {
			m.SetLevelsImmediate(sl, ml)
		}
		// The live metrics server scrapes the machine's counters between
		// invocations; its lock keeps scrapes from racing a running kernel.
		var ms *service.MetricsServer
		if *metricsAdr != "" {
			reg := telemetry.NewRegistry()
			ms, err = service.StartMetricsServer(*metricsAdr, reg, func() { m.Collect(reg) })
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "eqsim: serving live metrics on http://%s/metrics\n", ms.Addr())
		}
		var l1Weighted, dramWeighted float64
		for inv := 0; inv < k.Invocations; inv++ {
			if ms != nil {
				ms.Lock()
			}
			res, err := m.RunKernel(k, inv)
			if ms != nil {
				ms.Unlock()
			}
			if err != nil {
				fatal(err)
			}
			tot.TimePS += res.TimePS
			tot.EnergyJ += res.EnergyJ()
			tot.SMCycles += res.SMCycles
			l1Weighted += res.L1HitRate * float64(res.SMCycles)
			dramWeighted += res.DRAMUtil * float64(res.SMCycles)
			for i := 0; i < 3; i++ {
				tot.Residency.SM[i] += res.Residency.SM[i]
				tot.Residency.Mem[i] += res.Residency.Mem[i]
			}
			tot.PerInvocationPS = append(tot.PerInvocationPS, res.TimePS)
			if *verbose {
				fmt.Printf("inv %2d: %9d cycles  %8.3f ms  %8.4f J  IPC %.3f  L1 %.2f  DRAM %.2f\n",
					inv+1, res.SMCycles, float64(res.TimePS)/1e9, res.EnergyJ(),
					res.IPC, res.L1HitRate, res.DRAMUtil)
			}
		}
		if tot.SMCycles > 0 {
			tot.L1Hit = l1Weighted / float64(tot.SMCycles)
			tot.DRAMUtil = dramWeighted / float64(tot.SMCycles)
		}
		if *metrics != "" {
			if err := writeMetrics(m, *metrics, *metricsFmt); err != nil {
				fatal(err)
			}
		}
		if ms != nil {
			if err := ms.Close(); err != nil {
				fatal(err)
			}
		}
	}

	name := "baseline"
	if pol != nil {
		name = pol.Name()
	} else if static {
		name = fmt.Sprintf("static(sm=%s,mem=%s,blocks=%d)", *smLevel, *memLevel, *blocks)
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

// setupFromFlags maps the command-line policy selection onto the harness's
// Setup vocabulary, which keys the shared result cache.
func setupFromFlags(policyName string, static bool, sl, ml config.VFLevel, blocks int) exp.Setup {
	if static {
		if blocks > 0 {
			return exp.Setup{Policy: "blocks", SM: sl, Mem: ml, Blocks: blocks}
		}
		return exp.StaticVF(sl, ml)
	}
	switch strings.ToLower(policyName) {
	case "dyncta":
		return exp.Setup{Policy: "dynCTA", SM: config.VFNormal, Mem: config.VFNormal}
	case "ccws":
		return exp.Setup{Policy: "ccws", SM: config.VFNormal, Mem: config.VFNormal}
	case "equalizer-energy":
		return exp.EqualizerSetup(core.EnergyMode)
	case "equalizer-perf", "equalizer-performance":
		return exp.EqualizerSetup(core.PerformanceMode)
	default:
		return exp.Baseline()
	}
}

// writeMetrics snapshots the machine's counters into a registry and writes
// it in Prometheus text or JSON form.
func writeMetrics(m *gpu.Machine, path, format string) error {
	reg := telemetry.NewRegistry()
	m.Collect(reg)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if format == "json" {
		return reg.WriteJSON(f)
	}
	return reg.WritePrometheus(f)
}

func buildPolicy(name string, blocks int, eqCfg config.Equalizer) (gpu.Policy, bool, error) {
	switch strings.ToLower(name) {
	case "baseline":
		return nil, false, nil
	case "static":
		if blocks > 0 {
			return policy.NewStaticBlocks(blocks), true, nil
		}
		return nil, true, nil
	case "dyncta":
		return policy.NewDynCTA(), false, nil
	case "ccws":
		return policy.NewCCWS(), false, nil
	case "equalizer-energy":
		return core.NewWithConfig(core.EnergyMode, eqCfg), false, nil
	case "equalizer-perf", "equalizer-performance":
		return core.NewWithConfig(core.PerformanceMode, eqCfg), false, nil
	default:
		return nil, false, fmt.Errorf("unknown policy %q", name)
	}
}

func parseLevel(s string) (config.VFLevel, error) {
	switch strings.ToLower(s) {
	case "low":
		return config.VFLow, nil
	case "normal":
		return config.VFNormal, nil
	case "high":
		return config.VFHigh, nil
	default:
		return 0, fmt.Errorf("unknown VF level %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eqsim:", err)
	os.Exit(1)
}

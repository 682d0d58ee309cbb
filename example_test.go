package equalizer_test

import (
	"fmt"
	"log"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
)

// Build the simulated GPU, attach the Equalizer runtime in performance mode,
// run one cache-sensitive kernel, and compare against the stock machine.
func Example_quickstart() {
	// Pick a workload from the Table II registry. kmeans with the large
	// input is the paper's most cache-sensitive kernel.
	kernel, err := kernels.ByName("kmn")
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: the stock Fermi-style machine, no runtime tuning.
	base := runFirstInvocation(kernel, nil)

	// Equalizer in performance mode: boosts the bottleneck resource and
	// tunes the resident thread-block count per SM.
	tuned := runFirstInvocation(kernel, core.New(core.PerformanceMode))

	fmt.Printf("kernel %s (%s, %d blocks/SM, %d warps/block)\n",
		kernel.Name, kernel.Category, kernel.BlocksPerSM, kernel.Wcta)
	fmt.Printf("  baseline : %8.3f ms  %7.4f J  L1 hit %4.1f%%\n",
		float64(base.TimePS)/1e9, base.EnergyJ(), base.L1HitRate*100)
	fmt.Printf("  equalizer: %8.3f ms  %7.4f J  L1 hit %4.1f%%\n",
		float64(tuned.TimePS)/1e9, tuned.EnergyJ(), tuned.L1HitRate*100)
	fmt.Printf("  speedup  : %.2fx  energy: %.1f%% of baseline\n",
		float64(base.TimePS)/float64(tuned.TimePS),
		tuned.EnergyJ()/base.EnergyJ()*100)
	// Output:
	// kernel kmn (cache, 6 blocks/SM, 8 warps/block)
	//   baseline :    1.569 ms   0.1925 J  L1 hit  0.0%
	//   equalizer:    0.425 ms   0.0629 J  L1 hit 75.0%
	//   speedup  : 3.69x  energy: 32.7% of baseline
}

// Energy mode on a compute-bound and a memory-bound kernel: the
// under-utilised domain is throttled (memory frequency for compute kernels,
// SM frequency for memory kernels) while the bottleneck keeps its speed, so
// performance barely moves (paper Figure 8 and Table I).
func Example_energysave() {
	fmt.Println("Equalizer energy mode: throttle what the kernel does not need")
	fmt.Println()
	for _, name := range []string{"cutcp", "lbm"} {
		k, err := kernels.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		base := runFirstInvocation(k, nil)
		saved := runFirstInvocation(k, core.New(core.EnergyMode))

		slowdown := 1 - float64(base.TimePS)/float64(saved.TimePS)
		savings := 1 - saved.EnergyJ()/base.EnergyJ()

		// The residency distribution shows which domain was throttled.
		total := float64(saved.Residency.SM[0] + saved.Residency.SM[1] + saved.Residency.SM[2])
		memTotal := float64(saved.Residency.Mem[0] + saved.Residency.Mem[1] + saved.Residency.Mem[2])
		coreLow := float64(saved.Residency.SM[config.VFLow]) / total
		memLow := float64(saved.Residency.Mem[config.VFLow]) / memTotal

		fmt.Printf("%-6s baseline %7.4f J -> equalizer %7.4f J  (saved %.1f%%, perf cost %.1f%%)\n",
			name, base.EnergyJ(), saved.EnergyJ(), savings*100, slowdown*100)
		fmt.Printf("       time at core-low: %4.1f%%   time at mem-low: %4.1f%%\n",
			coreLow*100, memLow*100)
		if memLow > coreLow {
			fmt.Printf("       -> compute-bound: the memory system was throttled\n\n")
		} else {
			fmt.Printf("       -> memory-bound: the SMs were throttled\n\n")
		}
	}
	// Output:
	// Equalizer energy mode: throttle what the kernel does not need
	//
	// cutcp  baseline  0.0083 J -> equalizer  0.0079 J  (saved 5.6%, perf cost 0.0%)
	//        time at core-low:  0.0%   time at mem-low: 91.9%
	//        -> compute-bound: the memory system was throttled
	//
	// lbm    baseline  0.0065 J -> equalizer  0.0061 J  (saved 6.0%, perf cost 1.5%)
	//        time at core-low: 91.5%   time at mem-low:  0.0%
	//        -> memory-bound: the SMs were throttled
}

// Performance mode identifies the bottleneck resource of three
// differently-bound kernels from the warp-state counters alone and boosts
// exactly that resource (paper Figure 7 and Table I).
func Example_perfboost() {
	fmt.Println("Equalizer performance mode: boost only the bottleneck")
	fmt.Println()
	for _, name := range []string{"sgemm", "cfd-1", "histo-1"} {
		k, err := kernels.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		base := runFirstInvocation(k, nil)
		eq := core.New(core.PerformanceMode)
		eq.Record = true
		tuned := runFirstInvocation(k, eq)

		// The recorded trace shows what the counters saw and what the
		// runtime decided.
		var lastBlocks int
		var smHi, memHi bool
		for _, p := range eq.Trace() {
			lastBlocks = p.TargetBlocks
			smHi = smHi || p.SMLevel == config.VFHigh
			memHi = memHi || p.MemLevel == config.VFHigh
		}

		fmt.Printf("%-8s (%s): %.2fx speedup, %+.1f%% energy\n",
			k.Name, k.Category,
			float64(base.TimePS)/float64(tuned.TimePS),
			(tuned.EnergyJ()/base.EnergyJ()-1)*100)
		fmt.Printf("         boosted SM: %-5v  boosted memory: %-5v  final blocks/SM: %d (max %d)\n\n",
			smHi, memHi, lastBlocks, k.MaxResidentBlocks(48))
	}
	fmt.Println("The compute kernel boosts the SM clock, the memory kernel boosts the")
	fmt.Println("memory system, and the cache-sensitive kernel additionally sheds")
	fmt.Println("thread blocks until its working set fits the L1.")
	// Output:
	// Equalizer performance mode: boost only the bottleneck
	//
	// sgemm    (compute): 1.13x speedup, +8.0% energy
	//          boosted SM: true   boosted memory: false  final blocks/SM: 6 (max 6)
	//
	// cfd-1    (memory): 1.14x speedup, +4.4% energy
	//          boosted SM: false  boosted memory: true   final blocks/SM: 2 (max 3)
	//
	// histo-1  (cache): 2.35x speedup, -52.6% energy
	//          boosted SM: false  boosted memory: true   final blocks/SM: 1 (max 3)
	//
	// The compute kernel boosts the SM clock, the memory kernel boosts the
	// memory system, and the cache-sensitive kernel additionally sheds
	// thread blocks until its working set fits the L1.
}

// runFirstInvocation runs k's first invocation on a stock machine driven by
// policy (nil = no tuning).
func runFirstInvocation(k kernels.Kernel, policy gpu.Policy) gpu.Result {
	m, err := gpu.New(config.Default(), power.Default(), policy)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.RunKernel(k, 0)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

package equalizer_test

import (
	"testing"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/exp"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
)

// benchScale shrinks the grids so one benchmark iteration stays in the
// hundreds of milliseconds; run cmd/eqbench for full-scale numbers.
const benchScale = 0.25

// harness builds a cold harness at the default parallelism (GOMAXPROCS) with
// no disk cache, so every iteration measures real simulation work.
func harness() *exp.Harness { return exp.New(exp.Options{GridScale: benchScale}) }

// BenchmarkTable2Registry regenerates Table II (the kernel registry).
func BenchmarkTable2Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if len(h.Table2()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure1 regenerates the static VF / block-count sensitivity study.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2a regenerates the bfs-2 inter-invocation study.
func BenchmarkFigure2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure2a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2b regenerates the mri_g-1 warp-state time series.
func BenchmarkFigure2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure2b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the warp-state distribution.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the memory-kernel block sweep.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the performance-mode evaluation.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates the energy-mode evaluation.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates the VF-residency distribution.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates the DynCTA/CCWS comparison.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure10(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11a regenerates the bfs-2 adaptivity study.
func BenchmarkFigure11a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure11a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11b regenerates the spmv adaptivity traces.
func BenchmarkFigure11b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Figure11b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummary regenerates the headline numbers (Figures 7 + 8) on the
// worker pool at the default parallelism.
func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness()
		if _, err := h.Summarize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummarySequential is the one-worker reference for BenchmarkSummary:
// the ratio of the two is the worker pool's wall-clock win on this machine.
func BenchmarkSummarySequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := exp.New(exp.Options{GridScale: benchScale, Parallelism: 1})
		if _, err := h.Summarize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorCyclesPerSecond measures the raw simulator throughput:
// SM-domain cycles simulated per wall second on a compute kernel.
func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	k, err := kernels.ByName("cutcp")
	if err != nil {
		b.Fatal(err)
	}
	k.GridBlocks = 30
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		m, err := gpu.New(config.Default(), power.Default(), nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.RunKernel(k, 0)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.SMCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkEngine runs one compute-bound kernel (cutcp saturates the ALU
// pipes), one memory-bound kernel (lbm stalls on DRAM) and one cache-bound
// kernel at grid scale 0.25 (bfs-2, whose SMs are often empty and whose L2
// hits queue for their reply) to completion under Equalizer and reports
// simulated SM cycles per wall second: the cycle-engine smoke benchmark CI
// tracks (`go run ./bench` holds the full-scale numbers as
// gpu.run_ns_per_cycle).
func BenchmarkEngine(b *testing.B) {
	for _, row := range []struct {
		kernel string
		scale  float64
	}{{"cutcp", 1}, {"lbm", 1}, {"bfs-2", benchScale}} {
		b.Run(row.kernel, func(b *testing.B) {
			k, err := kernels.ByName(row.kernel)
			if err != nil {
				b.Fatal(err)
			}
			if row.scale != 1 {
				k = k.WithGridScale(row.scale, config.Default().NumSMs)
			}
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				m, err := gpu.New(config.Default(), power.Default(), core.New(core.EnergyMode))
				if err != nil {
					b.Fatal(err)
				}
				for inv := 0; inv < k.Invocations; inv++ {
					res, err := m.RunKernel(k, inv)
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.SMCycles
				}
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// BenchmarkEqualizerOverhead measures the wall-time cost of the Equalizer
// policy hooks relative to the bare simulator.
func BenchmarkEqualizerOverhead(b *testing.B) {
	k, err := kernels.ByName("cutcp")
	if err != nil {
		b.Fatal(err)
	}
	k.GridBlocks = 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gpu.New(config.Default(), power.Default(), core.New(core.PerformanceMode))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.RunKernel(k, 0); err != nil {
			b.Fatal(err)
		}
	}
}

package exp

import (
	"fmt"
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/kernels"
	"equalizer/internal/metrics"
)

// AblationPoint is one parameter setting's aggregate result over the
// ablation kernel set.
type AblationPoint struct {
	// Label names the setting (e.g. "epoch=2048").
	Label string
	// Speedup is the geomean performance-mode speedup vs baseline.
	Speedup float64
	// EnergyDelta is the mean energy change vs baseline.
	EnergyDelta float64
}

// ablationKernels is a representative set: one kernel per category plus the
// two phase-changing kernels, keeping sweeps affordable.
func ablationKernels() []kernels.Kernel {
	names := []string{"cutcp", "lbm", "kmn", "sc", "spmv", "bfs-2"}
	var ks []kernels.Kernel
	for _, n := range names {
		k, err := kernels.ByName(n)
		if err != nil {
			panic(err)
		}
		ks = append(ks, k)
	}
	return ks
}

// ablationSweep is one Equalizer parameter swept over the ablation kernel
// set: each value is written into a default config by set and labelled
// "<prefix>=<value>".
type ablationSweep struct {
	title  string
	prefix string
	values []int
	set    func(cfg *config.Equalizer, v int)
}

// ablationSweeps lists the sweeps Ablations renders, in order. It is a
// function rather than a package variable so that eqlint's cycleaccounting,
// which inspects function bodies, sees the EpochCycles write its allow
// names.
func ablationSweeps() []ablationSweep {
	return []ablationSweep{
		// The paper chose 4096 cycles after a sensitivity study (Section V-A.2).
		{"epoch window length", "epoch", []int{1024, 2048, 4096, 8192, 16384}, func(cfg *config.Equalizer, v int) {
			cfg.EpochCycles = v //eqlint:allow cycleaccounting -- writes the epoch-length config knob, not a live counter
		}},
		// Consecutive decisions required for a block change (the paper uses 3).
		{"block-change hysteresis", "hysteresis", []int{1, 2, 3, 4, 6}, func(cfg *config.Equalizer, v int) {
			cfg.Hysteresis = v
		}},
		// Instruction-buffer sampling interval (the paper samples every 128 cycles).
		{"sampling interval", "sample", []int{32, 64, 128, 256, 512}, func(cfg *config.Equalizer, v int) {
			cfg.SampleInterval = v
		}},
		// Xmem bandwidth-saturation floor (the paper uses 2 warps, Section III-A).
		{"Xmem saturation floor", "memsat", []int{0, 1, 2, 4, 8}, func(cfg *config.Equalizer, v int) {
			cfg.MemSaturationWarps = v
		}},
	}
}

// config returns the Equalizer parameters of s's point at value v: the
// paper's defaults with the swept parameter set to v.
func (s ablationSweep) config(v int) config.Equalizer {
	cfg := config.DefaultEqualizer()
	s.set(&cfg, v)
	return cfg
}

// ablationPoints runs the sweeps in the given mode over the ablation
// kernel set, all in one Prefetch, and returns each sweep's points: the
// geomean speedup and mean energy delta of every value vs the stock
// baseline. The sweeps' default-valued points are one configuration and
// dedupe in Prefetch.
func (h *Harness) ablationPoints(mode core.Mode, sweeps []ablationSweep) ([][]AblationPoint, error) {
	setups := []Setup{Baseline()}
	for _, s := range sweeps {
		for _, v := range s.values {
			setups = append(setups, EqualizerSetup(mode).WithEqualizer(s.config(v)))
		}
	}
	ks := ablationKernels()
	t, err := h.Prefetch(kernelGrid(ks, setups...))
	if err != nil {
		return nil, err
	}
	out := make([][]AblationPoint, len(sweeps))
	j := 0
	for si, s := range sweeps {
		for _, v := range s.values {
			j++
			label := fmt.Sprintf("%s=%d", s.prefix, v)
			var speedups, deltas []float64
			for i := range ks {
				base, run := t[i*len(setups)], t[i*len(setups)+j]
				speedups = append(speedups, run.Speedup(base))
				deltas = append(deltas, run.EnergyDelta(base))
			}
			speedup, err := metrics.GeomeanErr(speedups)
			if err != nil {
				return nil, fmt.Errorf("exp: ablation %s: %w", label, err)
			}
			out[si] = append(out[si], AblationPoint{Label: label, Speedup: speedup, EnergyDelta: metrics.Mean(deltas)})
		}
	}
	return out, nil
}

// Ablations runs every sweep in performance mode and renders them.
func (h *Harness) Ablations() (string, error) {
	sweeps := ablationSweeps()
	pts, err := h.ablationPoints(core.PerformanceMode, sweeps)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for si, s := range sweeps {
		fmt.Fprintf(&b, "Ablation: %s (performance mode, %d-kernel subset)\n", s.title, len(ablationKernels()))
		t := metrics.NewTable("setting", "geomean speedup", "mean energy delta")
		for _, p := range pts[si] {
			t.AddRowf(p.Label, p.Speedup, metrics.Pct(p.EnergyDelta))
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

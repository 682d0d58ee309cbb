package exp

import (
	"fmt"
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/kernels"
	"equalizer/internal/metrics"
)

// Fig7Row is one kernel's performance-mode result (paper Figure 7).
type Fig7Row struct {
	Kernel   string
	Category kernels.Category
	// Speedups vs the baseline GPU.
	Equalizer, SMBoost, MemBoost float64
	// Energy deltas vs the baseline (positive = more energy).
	EqualizerEnergy, SMBoostEnergy, MemBoostEnergy float64
}

// fig7Grid declares every run Figure 7 consumes.
func fig7Grid() []RunRequest {
	var grid []RunRequest
	for _, k := range kernels.All() {
		for _, s := range []Setup{
			Baseline(),
			EqualizerSetup(core.PerformanceMode),
			StaticVF(config.VFHigh, config.VFNormal),
			StaticVF(config.VFNormal, config.VFHigh),
		} {
			grid = append(grid, RunRequest{Kernel: k, Setup: s})
		}
	}
	return grid
}

// Figure7 runs the performance-mode evaluation: Equalizer against statically
// boosting the SM or the memory system by 15%.
func (h *Harness) Figure7() ([]Fig7Row, error) {
	h.Prefetch(fig7Grid())
	var rows []Fig7Row
	for _, k := range kernels.All() {
		base, err := h.Run(k, Baseline())
		if err != nil {
			return nil, err
		}
		eq, err := h.Run(k, EqualizerSetup(core.PerformanceMode))
		if err != nil {
			return nil, err
		}
		smB, err := h.Run(k, StaticVF(config.VFHigh, config.VFNormal))
		if err != nil {
			return nil, err
		}
		memB, err := h.Run(k, StaticVF(config.VFNormal, config.VFHigh))
		if err != nil {
			return nil, err
		}
		r := Fig7Row{
			Kernel:          k.Name,
			Category:        k.Category,
			EqualizerEnergy: eq.EnergyDelta(base),
			SMBoostEnergy:   smB.EnergyDelta(base),
			MemBoostEnergy:  memB.EnergyDelta(base),
		}
		for _, v := range []struct {
			dst *float64
			t   Totals
		}{{&r.Equalizer, eq}, {&r.SMBoost, smB}, {&r.MemBoost, memB}} {
			s, err := v.t.SpeedupErr(base)
			if err != nil {
				return nil, fmt.Errorf("figure 7: kernel %s: %w", k.Name, err)
			}
			*v.dst = s
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Fig7Summary aggregates Figure 7 (paper: Equalizer +22% at +6% energy; SM
// boost +7% at +12%; memory boost +6% at +7%).
type Fig7Summary struct {
	EqSpeedup, SMSpeedup, MemSpeedup float64
	EqEnergy, SMEnergy, MemEnergy    float64
	// PerCategory maps a category to Equalizer's geomean speedup.
	PerCategory map[kernels.Category]float64
}

// SummarizeFigure7 computes geomean speedups and mean energy deltas. A row
// carrying a non-positive speedup (a corrupt run) is reported as an error
// rather than aborting the process.
func SummarizeFigure7(rows []Fig7Row) (Fig7Summary, error) {
	var eq, sm, mem, eqE, smE, memE []float64
	perCat := map[kernels.Category][]float64{}
	for _, r := range rows {
		eq = append(eq, r.Equalizer)
		sm = append(sm, r.SMBoost)
		mem = append(mem, r.MemBoost)
		eqE = append(eqE, r.EqualizerEnergy)
		smE = append(smE, r.SMBoostEnergy)
		memE = append(memE, r.MemBoostEnergy)
		perCat[r.Category] = append(perCat[r.Category], r.Equalizer)
	}
	s := Fig7Summary{
		EqEnergy:    metrics.Mean(eqE),
		SMEnergy:    metrics.Mean(smE),
		MemEnergy:   metrics.Mean(memE),
		PerCategory: map[kernels.Category]float64{},
	}
	var err error
	if s.EqSpeedup, err = metrics.GeomeanErr(eq); err != nil {
		return s, fmt.Errorf("figure 7 equalizer speedups: %w", err)
	}
	if s.SMSpeedup, err = metrics.GeomeanErr(sm); err != nil {
		return s, fmt.Errorf("figure 7 sm-boost speedups: %w", err)
	}
	if s.MemSpeedup, err = metrics.GeomeanErr(mem); err != nil {
		return s, fmt.Errorf("figure 7 mem-boost speedups: %w", err)
	}
	for _, c := range kernels.Categories() {
		xs, ok := perCat[c]
		if !ok {
			continue
		}
		if s.PerCategory[c], err = metrics.GeomeanErr(xs); err != nil {
			return s, fmt.Errorf("figure 7 category %s: %w", c, err)
		}
	}
	return s, nil
}

// RenderFigure7 formats the performance-mode evaluation.
func RenderFigure7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: performance mode — speedup and energy increase vs baseline\n")
	t := metrics.NewTable("kernel", "category",
		"eq speedup", "sm-boost", "mem-boost",
		"eq energy", "sm energy", "mem energy")
	for _, r := range rows {
		t.AddRowf(r.Kernel, r.Category.String(),
			r.Equalizer, r.SMBoost, r.MemBoost,
			metrics.Pct(r.EqualizerEnergy), metrics.Pct(r.SMBoostEnergy), metrics.Pct(r.MemBoostEnergy))
	}
	b.WriteString(t.String())
	s, err := SummarizeFigure7(rows)
	if err != nil {
		fmt.Fprintf(&b, "summary unavailable: %v\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, "geomean speedup: equalizer %.3f, sm-boost %.3f, mem-boost %.3f\n",
		s.EqSpeedup, s.SMSpeedup, s.MemSpeedup)
	fmt.Fprintf(&b, "mean energy delta: equalizer %s, sm-boost %s, mem-boost %s\n",
		metrics.Pct(s.EqEnergy), metrics.Pct(s.SMEnergy), metrics.Pct(s.MemEnergy))
	for _, c := range kernels.Categories() {
		fmt.Fprintf(&b, "equalizer %s geomean speedup: %.3f\n", c, s.PerCategory[c])
	}
	return b.String()
}

// Fig8Row is one kernel's energy-mode result (paper Figure 8).
type Fig8Row struct {
	Kernel   string
	Category kernels.Category
	// Speedups vs baseline (values below 1 are slowdowns).
	Equalizer, SMLow, MemLow float64
	// Energy savings vs baseline (positive = saved).
	EqualizerSavings, SMLowSavings, MemLowSavings float64
	// StaticBest is the larger saving of SM-low/mem-low among the options
	// that lose at most 5% performance; zero when neither qualifies.
	StaticBest float64
}

// fig8Grid declares every run Figure 8 consumes.
func fig8Grid() []RunRequest {
	var grid []RunRequest
	for _, k := range kernels.All() {
		for _, s := range []Setup{
			Baseline(),
			EqualizerSetup(core.EnergyMode),
			StaticVF(config.VFLow, config.VFNormal),
			StaticVF(config.VFNormal, config.VFLow),
		} {
			grid = append(grid, RunRequest{Kernel: k, Setup: s})
		}
	}
	return grid
}

// Figure8 runs the energy-mode evaluation: Equalizer against statically
// lowering the SM or memory VF by 15%.
func (h *Harness) Figure8() ([]Fig8Row, error) {
	h.Prefetch(fig8Grid())
	var rows []Fig8Row
	for _, k := range kernels.All() {
		base, err := h.Run(k, Baseline())
		if err != nil {
			return nil, err
		}
		eq, err := h.Run(k, EqualizerSetup(core.EnergyMode))
		if err != nil {
			return nil, err
		}
		smL, err := h.Run(k, StaticVF(config.VFLow, config.VFNormal))
		if err != nil {
			return nil, err
		}
		memL, err := h.Run(k, StaticVF(config.VFNormal, config.VFLow))
		if err != nil {
			return nil, err
		}
		r := Fig8Row{
			Kernel:           k.Name,
			Category:         k.Category,
			EqualizerSavings: eq.EnergySavings(base),
			SMLowSavings:     smL.EnergySavings(base),
			MemLowSavings:    memL.EnergySavings(base),
		}
		for _, v := range []struct {
			dst *float64
			t   Totals
		}{{&r.Equalizer, eq}, {&r.SMLow, smL}, {&r.MemLow, memL}} {
			s, err := v.t.SpeedupErr(base)
			if err != nil {
				return nil, fmt.Errorf("figure 8: kernel %s: %w", k.Name, err)
			}
			*v.dst = s
		}
		// Static best: the bigger saving whose performance stays >= 0.95.
		if r.SMLow >= 0.95 && r.SMLowSavings > r.StaticBest {
			r.StaticBest = r.SMLowSavings
		}
		if r.MemLow >= 0.95 && r.MemLowSavings > r.StaticBest {
			r.StaticBest = r.MemLowSavings
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Fig8Summary aggregates Figure 8 (paper: Equalizer saves 15% with +5% perf;
// SM-low loses 9%, mem-low 7%; static best saves 8%).
type Fig8Summary struct {
	EqPerf, SMLowPerf, MemLowPerf float64
	EqSavings, StaticBest         float64
	PerCategorySavings            map[kernels.Category]float64
	PerCategoryPerf               map[kernels.Category]float64
}

// SummarizeFigure8 computes the aggregates. A row carrying a non-positive
// performance ratio (a corrupt run) is reported as an error rather than
// aborting the process.
func SummarizeFigure8(rows []Fig8Row) (Fig8Summary, error) {
	var eqP, smP, memP, eqS, sb []float64
	catS := map[kernels.Category][]float64{}
	catP := map[kernels.Category][]float64{}
	for _, r := range rows {
		eqP = append(eqP, r.Equalizer)
		smP = append(smP, r.SMLow)
		memP = append(memP, r.MemLow)
		eqS = append(eqS, r.EqualizerSavings)
		sb = append(sb, r.StaticBest)
		catS[r.Category] = append(catS[r.Category], r.EqualizerSavings)
		catP[r.Category] = append(catP[r.Category], r.Equalizer)
	}
	s := Fig8Summary{
		EqSavings:          metrics.Mean(eqS),
		StaticBest:         metrics.Mean(sb),
		PerCategorySavings: map[kernels.Category]float64{},
		PerCategoryPerf:    map[kernels.Category]float64{},
	}
	var err error
	if s.EqPerf, err = metrics.GeomeanErr(eqP); err != nil {
		return s, fmt.Errorf("figure 8 equalizer performance: %w", err)
	}
	if s.SMLowPerf, err = metrics.GeomeanErr(smP); err != nil {
		return s, fmt.Errorf("figure 8 sm-low performance: %w", err)
	}
	if s.MemLowPerf, err = metrics.GeomeanErr(memP); err != nil {
		return s, fmt.Errorf("figure 8 mem-low performance: %w", err)
	}
	for _, c := range kernels.Categories() {
		if xs, ok := catS[c]; ok {
			s.PerCategorySavings[c] = metrics.Mean(xs)
		}
		if xs, ok := catP[c]; ok {
			if s.PerCategoryPerf[c], err = metrics.GeomeanErr(xs); err != nil {
				return s, fmt.Errorf("figure 8 category %s: %w", c, err)
			}
		}
	}
	return s, nil
}

// RenderFigure8 formats the energy-mode evaluation.
func RenderFigure8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8: energy mode — performance and energy savings vs baseline\n")
	t := metrics.NewTable("kernel", "category",
		"eq perf", "sm-low", "mem-low",
		"eq savings", "static best")
	for _, r := range rows {
		t.AddRowf(r.Kernel, r.Category.String(),
			r.Equalizer, r.SMLow, r.MemLow,
			metrics.Pct(r.EqualizerSavings), metrics.Pct(r.StaticBest))
	}
	b.WriteString(t.String())
	s, err := SummarizeFigure8(rows)
	if err != nil {
		fmt.Fprintf(&b, "summary unavailable: %v\n", err)
		return b.String()
	}
	fmt.Fprintf(&b, "geomean performance: equalizer %.3f, sm-low %.3f, mem-low %.3f\n",
		s.EqPerf, s.SMLowPerf, s.MemLowPerf)
	fmt.Fprintf(&b, "mean energy savings: equalizer %s, static best (P>0.95) %s\n",
		metrics.Pct(s.EqSavings), metrics.Pct(s.StaticBest))
	for _, c := range kernels.Categories() {
		fmt.Fprintf(&b, "equalizer %s: savings %s at %.3fx performance\n",
			c, metrics.Pct(s.PerCategorySavings[c]), s.PerCategoryPerf[c])
	}
	return b.String()
}

// Fig9Row is one kernel's VF-residency distribution in one mode.
type Fig9Row struct {
	Kernel string
	Mode   string // "P" or "E"
	// Fractions of wall time per state.
	MemLow, MemHigh, CoreLow, CoreHigh, Normal float64
}

// Figure9 measures the distribution of time over the SM and memory frequency
// states under Equalizer in both modes.
func (h *Harness) Figure9() ([]Fig9Row, error) {
	var grid []RunRequest
	for _, k := range kernels.All() {
		grid = append(grid,
			RunRequest{Kernel: k, Setup: EqualizerSetup(core.PerformanceMode)},
			RunRequest{Kernel: k, Setup: EqualizerSetup(core.EnergyMode)})
	}
	h.Prefetch(grid)
	var rows []Fig9Row
	for _, k := range kernels.All() {
		for _, mode := range []string{"P", "E"} {
			setup := EqualizerSetup(core.PerformanceMode)
			if mode == "E" {
				setup = EqualizerSetup(core.EnergyMode)
			}
			t, err := h.Run(k, setup)
			if err != nil {
				return nil, err
			}
			total := float64(t.Residency.SM[0] + t.Residency.SM[1] + t.Residency.SM[2])
			memTotal := float64(t.Residency.Mem[0] + t.Residency.Mem[1] + t.Residency.Mem[2])
			if total == 0 || memTotal == 0 {
				continue
			}
			r := Fig9Row{
				Kernel:   k.Name,
				Mode:     mode,
				CoreLow:  float64(t.Residency.SM[config.VFLow]) / total,
				CoreHigh: float64(t.Residency.SM[config.VFHigh]) / total,
				MemLow:   float64(t.Residency.Mem[config.VFLow]) / memTotal,
				MemHigh:  float64(t.Residency.Mem[config.VFHigh]) / memTotal,
			}
			// Normal is the time both domains sat at nominal; approximate
			// with the SM domain's nominal share (the paper's stacked bar
			// has one "normal" segment).
			r.Normal = float64(t.Residency.SM[config.VFNormal]) / total
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// RenderFigure9 formats the VF residency distribution.
func RenderFigure9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9: distribution of time at each VF state (P = performance, E = energy)\n")
	t := metrics.NewTable("kernel", "mode", "core low", "core high", "mem low", "mem high", "core normal")
	for _, r := range rows {
		t.AddRowf(r.Kernel, r.Mode, r.CoreLow, r.CoreHigh, r.MemLow, r.MemHigh, r.Normal)
	}
	b.WriteString(t.String())
	return b.String()
}

// Summary reports the headline numbers of the paper's abstract.
type Summary struct {
	PerfModeSpeedup     float64 // paper: 1.22
	PerfModeEnergyDelta float64 // paper: +6%
	EnergyModeSavings   float64 // paper: 15%
	EnergyModePerf      float64 // paper: 1.05
}

// Summarize runs both modes over all kernels and aggregates. The union of
// both figures' grids is prefetched up front so the worker pool stays
// saturated across the figure boundary (the shared baselines dedupe).
func (h *Harness) Summarize() (Summary, error) {
	h.Prefetch(append(fig7Grid(), fig8Grid()...))
	f7, err := h.Figure7()
	if err != nil {
		return Summary{}, err
	}
	f8, err := h.Figure8()
	if err != nil {
		return Summary{}, err
	}
	s7, err := SummarizeFigure7(f7)
	if err != nil {
		return Summary{}, err
	}
	s8, err := SummarizeFigure8(f8)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		PerfModeSpeedup:     s7.EqSpeedup,
		PerfModeEnergyDelta: s7.EqEnergy,
		EnergyModeSavings:   s8.EqSavings,
		EnergyModePerf:      s8.EqPerf,
	}, nil
}

// RenderSummary formats the headline results alongside the paper's numbers.
func RenderSummary(s Summary) string {
	var b strings.Builder
	b.WriteString("Headline results (paper values in parentheses)\n")
	t := metrics.NewTable("metric", "measured", "paper")
	t.AddRow("performance-mode speedup", fmt.Sprintf("%.3f", s.PerfModeSpeedup), "1.22")
	t.AddRow("performance-mode energy delta", metrics.Pct(s.PerfModeEnergyDelta), "+6%")
	t.AddRow("energy-mode savings", metrics.Pct(s.EnergyModeSavings), "+15%")
	t.AddRow("energy-mode performance", fmt.Sprintf("%.3f", s.EnergyModePerf), "1.05")
	b.WriteString(t.String())
	return b.String()
}

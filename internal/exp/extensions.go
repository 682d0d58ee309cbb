package exp

import (
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/kernels"
	"equalizer/internal/metrics"
)

// BoostRow compares Equalizer's performance mode against the commercial
// GPU-Boost-style power-headroom controller on one kernel.
type BoostRow struct {
	Kernel   string
	Category kernels.Category
	// Speedups and energy deltas vs the baseline GPU.
	Boost, Equalizer             float64
	BoostEnergy, EqualizerEnergy float64
}

// BoostComparison runs the extension study: Boost raises the core clock on
// power headroom alone, so it matches Equalizer only on compute kernels and
// wastes energy everywhere else.
func (h *Harness) BoostComparison() ([]BoostRow, error) {
	ks := kernels.All()
	boostSetup := Setup{Policy: "boost", SM: config.VFNormal, Mem: config.VFNormal}
	t, err := h.Prefetch(kernelGrid(ks, Baseline(), EqualizerSetup(core.PerformanceMode), boostSetup))
	if err != nil {
		return nil, err
	}
	var rows []BoostRow
	for i, k := range ks {
		base, eq, boost := t[3*i], t[3*i+1], t[3*i+2]
		rows = append(rows, BoostRow{
			Kernel:          k.Name,
			Category:        k.Category,
			Boost:           boost.Speedup(base),
			Equalizer:       eq.Speedup(base),
			BoostEnergy:     boost.EnergyDelta(base),
			EqualizerEnergy: eq.EnergyDelta(base),
		})
	}
	return rows, nil
}

// RenderBoostComparison formats the extension study.
func RenderBoostComparison(rows []BoostRow) string {
	var b strings.Builder
	b.WriteString("Extension: GPU-Boost-style power-headroom boosting vs Equalizer (performance mode)\n")
	t := metrics.NewTable("kernel", "category", "boost", "equalizer", "boost energy", "eq energy")
	var bs, es, be, ee []float64
	for _, r := range rows {
		t.AddRowf(r.Kernel, r.Category.String(), r.Boost, r.Equalizer,
			metrics.Pct(r.BoostEnergy), metrics.Pct(r.EqualizerEnergy))
		bs = append(bs, r.Boost)
		es = append(es, r.Equalizer)
		be = append(be, r.BoostEnergy)
		ee = append(ee, r.EqualizerEnergy)
	}
	t.AddRow("GMEAN", "", gmeanCell(bs), gmeanCell(es),
		metrics.Pct(metrics.Mean(be)), metrics.Pct(metrics.Mean(ee)))
	b.WriteString(t.String())
	b.WriteString("boost raises the core clock whenever power headroom exists, so memory-\n" +
		"and cache-bound kernels pay the energy without the speedup.\n")
	return b.String()
}

package exp

import (
	"strings"

	"equalizer/internal/config"
	"equalizer/internal/core"
	"equalizer/internal/gpu"
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

// ConcurrentStudy runs the multi-kernel extension: a compute kernel and a
// memory kernel share the GPU on disjoint SM partitions. Equalizer's per-SM
// counters classify each partition correctly, but the chip-wide frequency
// manager takes a majority vote, so with a split workload neither boost can
// win — the inefficiency the paper attributes to a shared VRM (Section V-A).
func (h *Harness) ConcurrentStudy() (string, error) {
	compute, err := kernels.ByName("cutcp")
	if err != nil {
		return "", err
	}
	memory, err := kernels.ByName("lbm")
	if err != nil {
		return "", err
	}
	compute = compute.WithGridScale(h.scale*0.5, 7)
	memory = memory.WithGridScale(h.scale*0.5, 7)
	tasks := []gpu.Task{{Kernel: compute}, {Kernel: memory}}

	run := func(p gpu.Policy) (perTask []gpu.Result, total gpu.Result, err error) {
		m, err := gpu.New(h.gpuCfg, h.pwrCfg, p)
		if err != nil {
			return nil, gpu.Result{}, err
		}
		return m.RunConcurrent(tasks)
	}
	baseTasks, baseTotal, err := run(nil)
	if err != nil {
		return "", err
	}
	eqTasks, eqTotal, err := run(core.New(core.PerformanceMode))
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("Extension: concurrent kernels (cutcp ∥ lbm on disjoint SM partitions)\n")
	t := metrics.NewTable("kernel", "baseline ms", "equalizer ms", "speedup")
	for i := range baseTasks {
		t.AddRowf(baseTasks[i].Kernel,
			float64(baseTasks[i].TimePS)/1e9,
			float64(eqTasks[i].TimePS)/1e9,
			float64(baseTasks[i].TimePS)/float64(eqTasks[i].TimePS))
	}
	t.AddRowf("machine", float64(baseTotal.TimePS)/1e9, float64(eqTotal.TimePS)/1e9,
		float64(baseTotal.TimePS)/float64(eqTotal.TimePS))
	b.WriteString(t.String())
	b.WriteString("per-SM counters classify each partition; the shared VRM's majority vote\n" +
		"limits chip-wide frequency shifts when the halves disagree (the paper's\n" +
		"argument for per-SM regulators).\n")
	return b.String(), nil
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

package gpu

import (
	"fmt"

	"equalizer/internal/telemetry"
)

// Collect snapshots the machine's accumulated statistics into a telemetry
// registry as named, labeled series: per-SM counters and gauges, the shared
// memory partition (L2, interconnect, DRAM), VF-domain residency, and
// cross-SM distribution histograms. Counters are cumulative over the
// machine's lifetime, so collecting after every invocation yields
// monotonically increasing Prometheus-style series.
func (m *Machine) Collect(reg *telemetry.Registry) {
	ipcHist := reg.Histogram("eq_sm_ipc",
		"distribution of per-SM issued instructions per cycle",
		[]float64{0.1, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 2}, nil)
	l1Hist := reg.Histogram("eq_sm_l1_hit_rate",
		"distribution of per-SM L1 demand hit rates",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}, nil)

	for i, s := range m.sms {
		sl := fmt.Sprintf("%d", i)
		st := s.Stats()
		reg.Counter("eq_sm_issued_total", "warp instructions issued per pipeline",
			telemetry.Labels{"sm": sl, "pipe": "alu"}).Set(st.IssuedALU)
		reg.Counter("eq_sm_issued_total", "warp instructions issued per pipeline",
			telemetry.Labels{"sm": sl, "pipe": "sfu"}).Set(st.IssuedSFU)
		reg.Counter("eq_sm_issued_total", "warp instructions issued per pipeline",
			telemetry.Labels{"sm": sl, "pipe": "mem"}).Set(st.IssuedMEM)
		reg.Counter("eq_sm_issued_total", "warp instructions issued per pipeline",
			telemetry.Labels{"sm": sl, "pipe": "tex"}).Set(st.IssuedTEX)
		reg.Counter("eq_sm_cycles_total", "SM cycles stepped",
			telemetry.Labels{"sm": sl, "state": "total"}).Set(st.Cycles)
		reg.Counter("eq_sm_cycles_total", "SM cycles stepped",
			telemetry.Labels{"sm": sl, "state": "active"}).Set(st.ActiveCycles)
		reg.Counter("eq_sm_blocks_total", "thread blocks launched and finished",
			telemetry.Labels{"sm": sl, "event": "launched"}).Set(st.BlocksLaunched)
		reg.Counter("eq_sm_blocks_total", "thread blocks launched and finished",
			telemetry.Labels{"sm": sl, "event": "finished"}).Set(st.BlocksFinished)
		reg.Counter("eq_sm_barrier_releases_total", "whole-block barrier releases",
			telemetry.Labels{"sm": sl}).Set(st.BarrierReleases)
		reg.Gauge("eq_sm_resident_blocks", "blocks currently resident",
			telemetry.Labels{"sm": sl}).Set(float64(s.ResidentBlocks()))
		reg.Gauge("eq_sm_target_blocks", "concurrency ceiling set by the policy",
			telemetry.Labels{"sm": sl}).Set(float64(s.TargetBlocks()))
		reg.Gauge("eq_sm_live_warps", "resident unfinished warps",
			telemetry.Labels{"sm": sl}).Set(float64(s.LiveWarps()))

		l1 := s.L1().Stats()
		reg.Counter("eq_l1_accesses_total", "L1 probes by outcome",
			telemetry.Labels{"sm": sl, "result": "hit"}).Set(l1.Hits)
		reg.Counter("eq_l1_accesses_total", "L1 probes by outcome",
			telemetry.Labels{"sm": sl, "result": "miss"}).Set(l1.Misses)
		reg.Counter("eq_l1_accesses_total", "L1 probes by outcome",
			telemetry.Labels{"sm": sl, "result": "merged"}).Set(l1.Merged)
		reg.Counter("eq_l1_accesses_total", "L1 probes by outcome",
			telemetry.Labels{"sm": sl, "result": "reject"}).Set(l1.Rejects)
		reg.Counter("eq_l1_evictions_total", "L1 lines evicted by fills",
			telemetry.Labels{"sm": sl}).Set(l1.Evictions)

		ipcHist.Observe(st.IPC())
		l1Hist.Observe(l1.HitRate())
	}

	l2 := m.l2.Stats()
	part := telemetry.Labels{"partition": "0"}
	reg.Counter("eq_l2_accesses_total", "L2 probes by outcome",
		telemetry.Labels{"partition": "0", "result": "hit"}).Set(l2.Hits)
	reg.Counter("eq_l2_accesses_total", "L2 probes by outcome",
		telemetry.Labels{"partition": "0", "result": "miss"}).Set(l2.Misses)
	reg.Counter("eq_l2_accesses_total", "L2 probes by outcome",
		telemetry.Labels{"partition": "0", "result": "merged"}).Set(l2.Merged)
	reg.Counter("eq_l2_accesses_total", "L2 probes by outcome",
		telemetry.Labels{"partition": "0", "result": "reject"}).Set(l2.Rejects)
	reg.Counter("eq_l2_evictions_total", "L2 lines evicted by fills", part).Set(l2.Evictions)

	net := m.net.Stats()
	reg.Counter("eq_icnt_requests_total", "interconnect requests by event",
		telemetry.Labels{"partition": "0", "event": "pushed"}).Set(net.Pushed)
	reg.Counter("eq_icnt_requests_total", "interconnect requests by event",
		telemetry.Labels{"partition": "0", "event": "delivered"}).Set(net.Delivered)
	reg.Counter("eq_icnt_requests_total", "interconnect requests by event",
		telemetry.Labels{"partition": "0", "event": "stalled"}).Set(net.Stalled)
	reg.Counter("eq_icnt_requests_total", "interconnect requests by event",
		telemetry.Labels{"partition": "0", "event": "blocked"}).Set(net.BlockedDeliveries)

	ds := m.dram.Stats()
	reg.Counter("eq_dram_requests_total", "DRAM requests by event",
		telemetry.Labels{"partition": "0", "event": "enqueued"}).Set(ds.Enqueued)
	reg.Counter("eq_dram_requests_total", "DRAM requests by event",
		telemetry.Labels{"partition": "0", "event": "serviced"}).Set(ds.Serviced)
	reg.Counter("eq_dram_requests_total", "DRAM requests by event",
		telemetry.Labels{"partition": "0", "event": "rejected"}).Set(ds.Rejected)
	reg.Counter("eq_dram_busy_cycles_total", "memory cycles with the data bus busy",
		part).Set(ds.BusyCycles)
	reg.Gauge("eq_dram_utilization", "fraction of observed cycles the bus was busy",
		part).Set(ds.Utilization())
	reg.Gauge("eq_dram_mean_queue_depth", "average queued requests per cycle",
		part).Set(ds.MeanQueueDepth())

	reg.Gauge("eq_vf_level", "effective VF level ordinal (0=low 1=normal 2=high)",
		telemetry.Labels{"domain": "sm"}).Set(float64(m.smDomain.Level()))
	reg.Gauge("eq_vf_level", "effective VF level ordinal (0=low 1=normal 2=high)",
		telemetry.Labels{"domain": "mem"}).Set(float64(m.memDomain.Level()))
	res := m.residency()
	levels := [...]string{"low", "normal", "high"}
	for i, name := range levels {
		reg.Counter("eq_vf_residency_ps_total", "wall time spent at each VF level",
			telemetry.Labels{"domain": "sm", "level": name}).Set(uint64(res.SM[i]))
		reg.Counter("eq_vf_residency_ps_total", "wall time spent at each VF level",
			telemetry.Labels{"domain": "mem", "level": name}).Set(uint64(res.Mem[i]))
	}

	if m.bus != nil {
		reg.Counter("eq_probe_events_total", "events retained on the probe bus",
			nil).Set(uint64(m.bus.Len()))
		reg.Counter("eq_probe_events_dropped_total", "events lost to ring wrap-around",
			nil).Set(m.bus.Dropped())
	}
}

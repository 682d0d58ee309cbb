package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"equalizer/internal/config"
	"equalizer/internal/exp"
	"equalizer/internal/exp/runcache"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
	"equalizer/internal/policy"
	"equalizer/internal/service"
	"equalizer/internal/telemetry"
)

// perLayer are the metrics of single layers, reported by every workload's
// traced run. Nothing inside the program is instrumented: a layer's time is
// obtained by peeling — the same cell is executed at each public boundary
// (HTTP round trip, Handler().ServeHTTP, Harness.RunCtx, runcache and the
// bare gpu.Machine) and the boundaries are subtracted — and by micro-drivers
// (micro.go) for the components no boundary isolates.
var perLayer = []metricDef{
	{"gpu.run_ns_per_cycle", "ns/cyc"},
	{"gpu.new_us", "us"},
	{"gpu.allocs_per_run", "count"},
	{"gpu.alloc_kb_per_run", "kB"},
	{"gpu.collect_us", "us"},
	{"exp.sim_overhead_ratio", "ratio"},
	{"exp.self_us", "us"},
	{"exp.memo_hit_ns", "ns"},
	{"exp.prefetch_speedup", "ratio"},
	{"runcache.store_us", "us"},
	{"runcache.load_us", "us"},
	{"runcache.miss_us", "us"},
	{"runcache.entry_bytes", "B"},
	{"workpool.do_us", "us"},
	{"service.roundtrip_us", "us"},
	{"service.serve_us", "us"},
	{"service.self_us", "us"},
	{"service.http_self_us", "us"},
	{"service.sweep_cell_us", "us"},
	{"service.shed_ratio", "ratio"},
	{"service.memo_ratio", "ratio"},
	{"tuner.tick_us", "us"},
	{"core.sample_ns_per_cycle", "ns/cyc"},
	{"core.decide_ns", "ns"},
	{"telemetry.attach_ns_per_cycle", "ns/cyc"},
	{"telemetry.events_per_kcycle", "count"},
	{"telemetry.emit_ns", "ns"},
	{"telemetry.emit_masked_ns", "ns"},
	{"telemetry.prom_write_us", "us"},
	{"sm.step_compute_ns", "ns"},
	{"sm.step_memory_ns", "ns"},
	{"warp.next_ns", "ns"},
	{"events.calendar_ns", "ns"},
	{"cache.hit_ns", "ns"},
	{"cache.miss_fill_ns", "ns"},
	{"icnt.push_drain_ns", "ns"},
	{"dram.step_busy_ns", "ns"},
	{"dram.skipidle_ns", "ns"},
	{"clock.tick_ns", "ns"},
	{"power.accumulate_ns", "ns"},
	{"sm.ipc", "1/cyc"},
	{"sm.active_cycle_ratio", "ratio"},
	{"cache.l1_accesses_per_kcycle", "count"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l1_reject_ratio", "ratio"},
	{"cache.l2_accesses_per_kcycle", "count"},
	{"cache.l2_hit_ratio", "ratio"},
	{"icnt.pushed_per_kcycle", "count"},
	{"icnt.stall_ratio", "ratio"},
	{"dram.serviced_per_kcycle", "count"},
	{"dram.utilization", "ratio"},
	{"dram.mean_queue_depth", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// isBaseline reports whether cell index ci is a kernel's baseline cell
// (setups() lists the baseline first). The probes that compare a bare machine
// with and without something attached run on these, where the policy is nil.
func isBaseline(ci int) bool { return ci%3 == 0 }

// steadyAllocs re-runs invocation 0 on a machine that has already run the
// whole sequence and returns the heap allocations of that run.
func steadyAllocs(m *gpu.Machine, k kernels.Kernel) (allocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = m.RunKernel(k, 0)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// layers fills in the per-layer metrics of a traced run: the micro-drivers,
// the peel over the workload's reference cells, and the tracing overhead.
func (r *runner) layers(res *runResult, untraced, traced passResult) error {
	m := map[string]float64{}
	scale := 1.0
	if r.cfg.smoke {
		scale = 0.02
	}
	refs := r.w.refCells(len(r.cells))
	if err := micro(m, newRNG(r.cfg.seed), scale, r.bare[refs[0]].Totals, r.tmpDir()); err != nil {
		return err
	}
	if err := r.peel(m, untraced); err != nil {
		return err
	}
	m["bench.trace_overhead_ratio"] = (float64(traced.Ops) / traced.WallS) / (float64(untraced.Ops) / untraced.WallS)
	return res.fill(perLayer, m)
}

// peelAcc collects the per-cell measurements of a peel.
type peelAcc struct {
	roundtrip, serve, sweepCell, cacheHit, memoHit       []float64
	nsPerCycle, overhead, sampleNS, attachNS, eventsPerK []float64
	allocs, allocKB                                      []float64
	bareS                                                float64
}

// peelService is the one service every cell of a peel is sent through.
type peelService struct {
	svc     *service.Service
	handler http.Handler
	client  *client
	dir     string
	reps    int
}

// peel executes every reference cell once at each public boundary and turns
// the differences into layer metrics. Every boundary's result must carry the
// bare machine's digest.
//
// Self times are taken where nothing simulates (memo and disk-cache hits):
// against a 100 ms simulation the microseconds a layer adds are below the
// run-to-run noise of the simulation itself, so subtracting two cold spans
// would report noise. The cold executions are still made, checked and
// recorded as spans.
func (r *runner) peel(m map[string]float64, untraced passResult) error {
	svc, srv, dir, err := r.startService()
	if err != nil {
		return err
	}
	defer r.stopService(svc, srv)
	ps := &peelService{svc: svc, handler: svc.Handler(), client: newClients(1, srv.URL)[0], dir: dir, reps: 30}
	defer ps.client.hc.CloseIdleConnections()
	if r.cfg.smoke {
		ps.reps = 5
	}
	refs := r.w.refCells(len(r.cells))
	var a peelAcc
	for _, ci := range refs {
		if err := r.peelCell(&a, ps, ci); err != nil {
			return fmt.Errorf("peel %s: %w", r.cells[ci], err)
		}
	}
	for _, ci := range refs {
		if !isBaseline(ci) {
			continue
		}
		if err := r.peelSweep(&a, ps, ci); err != nil {
			return fmt.Errorf("peel sweep %s: %w", r.cells[ci], err)
		}
	}

	m["gpu.run_ns_per_cycle"] = median(a.nsPerCycle)
	m["gpu.allocs_per_run"] = median(a.allocs)
	m["gpu.alloc_kb_per_run"] = median(a.allocKB)
	m["exp.sim_overhead_ratio"] = median(a.overhead)
	m["exp.memo_hit_ns"] = median(a.memoHit)
	// RunCtx answering from the disk cache, less the cache's own read (micro
	// measured it on an entry of the same kind): key hashing, memo, counters.
	m["exp.self_us"] = median(a.cacheHit) - m["runcache.load_us"]
	m["service.roundtrip_us"] = median(a.roundtrip)
	m["service.serve_us"] = median(a.serve)
	m["service.self_us"] = median(a.serve) - median(a.memoHit)/1e3
	m["service.http_self_us"] = median(a.roundtrip) - median(a.serve)
	m["service.sweep_cell_us"] = median(a.sweepCell)
	m["core.sample_ns_per_cycle"] = median(a.sampleNS)
	m["telemetry.attach_ns_per_cycle"] = median(a.attachNS)
	m["telemetry.events_per_kcycle"] = median(a.eventsPerK)

	// The bare machine's sequential time for the pass's simulated cycles, over
	// the pass's wall time: how much faster than one sequential engine the
	// layers above it ran the work. Ideal is the CPU count. Where every cell
	// has a reference the bare time is the sum of the references; a
	// whole-registry pass is costed at the sample's median pace instead (81
	// more bare runs would double the traced run), which lands within a few
	// per cent of the sum on today's tree.
	simPass := untraced
	if r.w.kind == kindSvcWarm {
		simPass = r.warm.fill
	}
	bareS := a.bareS
	if len(refs) < len(r.cells) {
		bareS = float64(simPass.SimCycles) * median(a.nsPerCycle) / 1e9
	}
	m["exp.prefetch_speedup"] = bareS / simPass.WallS

	src := &r.peelSrc
	if r.w.kind == kindSvcCold || r.w.kind == kindSvcWarm {
		src = &r.passSrc
	}
	m["service.shed_ratio"] = ratio(float64(src.refused), float64(src.requests))
	m["service.memo_ratio"] = ratio(float64(src.memo), float64(src.cells))
	r.modelCounts(m, refs)
	return nil
}

// peelCell walks one reference cell down the boundaries. An error is a
// failure of the benchmark itself; a wrong answer from the program is
// counted in r.fails and the walk goes on.
func (r *runner) peelCell(a *peelAcc, ps *peelService, ci int) error {
	c := r.cells[ci]
	ref := r.bare[ci]
	cycles := float64(ref.Totals.SMCycles)
	a.bareS += ref.Wall.Seconds()
	a.nsPerCycle = append(a.nsPerCycle, float64(ref.Wall.Nanoseconds())/cycles)
	root := r.trace.open("peel "+c.String(), -1, ci)
	defer r.trace.close(root)

	// HTTP round trip, cold: decode -> admission -> queue -> pool ->
	// simulate -> store -> encode.
	var rr service.RunResponse
	sp := r.trace.open("service.roundtrip cold", root, ci)
	status, body, err := ps.client.post("/v1/run", r.bodies[ci])
	r.trace.close(sp)
	r.peelSrc.request(err == nil && status == http.StatusOK)
	if err != nil || status != http.StatusOK {
		r.fails.add("peel POST %s: status %d: %v", c, status, err)
		return nil
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		r.fails.add("peel POST %s: decode: %v", c, err)
		return nil
	}
	r.peelSrc.add(rr.Source)
	if rr.Source != string(exp.SourceSim) {
		r.fails.add("peel POST %s: cold request answered from %q", c, rr.Source)
	}
	r.check(ci, rr.Totals, "peel POST /v1/run")

	// The same cell again, now memoised: round trip, ServeHTTP on a recorder,
	// DirectTotals.
	var rt, sv []float64
	for i := 0; i < ps.reps; i++ {
		t0 := time.Now()
		status, body, err = ps.client.post("/v1/run", r.bodies[ci])
		rt = append(rt, us(time.Since(t0)))
		r.peelSrc.request(err == nil && status == http.StatusOK)
		if err != nil || status != http.StatusOK {
			r.fails.add("peel warm POST %s: status %d: %v", c, status, err)
			return nil
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(r.bodies[ci]))
		rec := httptest.NewRecorder()
		t0 = time.Now()
		ps.handler.ServeHTTP(rec, req)
		sv = append(sv, us(time.Since(t0)))
		if i > 0 {
			continue
		}
		if err := json.Unmarshal(body, &rr); err != nil {
			r.fails.add("peel warm POST %s: decode: %v", c, err)
		} else {
			r.peelSrc.add(rr.Source)
			r.check(ci, rr.Totals, "peel warm POST /v1/run")
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || rec.Code != http.StatusOK {
			r.fails.add("peel ServeHTTP %s: status %d: %v", c, rec.Code, err)
		} else {
			r.check(ci, rr.Totals, "peel ServeHTTP")
		}
	}
	a.roundtrip = append(a.roundtrip, median(rt))
	a.serve = append(a.serve, median(sv))
	if tot, err := ps.svc.DirectTotals(c.spec()); err != nil {
		r.fails.add("peel DirectTotals %s: %v", c, err)
	} else {
		r.check(ci, tot, "peel DirectTotals")
	}

	// Harness.RunCtx on a fresh harness over the now populated cache
	// directory: a disk-cache hit, then memo hits.
	cache, err := runcache.Open(ps.dir)
	if err != nil {
		return err
	}
	h := exp.New(exp.Options{GridScale: r.w.scale, Cache: cache})
	var tot exp.Totals
	var src exp.RunSource
	d := r.trace.timed("exp.RunCtx cache hit", root, ci, func() {
		tot, src, err = h.RunCtx(context.Background(), c.Kernel, c.Setup)
	})
	if err != nil || src != exp.SourceCache {
		r.fails.add("peel RunCtx %s: source %q, want a disk-cache hit: %v", c, src, err)
	} else {
		r.check(ci, tot, "peel RunCtx cache")
		a.cacheHit = append(a.cacheHit, us(d))
	}
	const memoReps = 1000
	t0 := time.Now()
	for i := 0; i < memoReps; i++ {
		_, src, _ = h.RunCtx(context.Background(), c.Kernel, c.Setup) //nolint:errcheck // a memoised success cannot fail
	}
	memoNS := float64(time.Since(t0).Nanoseconds()) / memoReps
	a.memoHit = append(a.memoHit, memoNS)
	if src != exp.SourceMemo {
		r.fails.add("peel RunCtx %s: repeat answered from %q, want memo", c, src)
	}

	// The warm chain as spans, at the medians just measured: the round trip
	// caused the handler call, which caused the memo lookup.
	rtSpan := r.trace.synthetic("service.roundtrip warm", root, ci, median(rt))
	svSpan := r.trace.synthetic("service.serve warm", rtSpan, ci, median(sv))
	r.trace.synthetic("exp.RunCtx memo", svSpan, ci, memoNS/1e3)

	if !isBaseline(ci) {
		return nil
	}
	a.allocs = append(a.allocs, float64(ref.Allocs))
	a.allocKB = append(a.allocKB, float64(ref.AllocBytes)/1024)

	// The probes below compare runs made back to back, so they start with
	// a plain bare run of their own: the set-up's reference ran in a colder
	// process. Each probe is a difference of two runs of about a tenth of a
	// second, so it resolves only costs well above their run-to-run noise
	// (a few per cent of gpu.run_ns_per_cycle).
	var plain, br bareResult
	r.trace.timed("gpu.RunKernel", root, ci, func() {
		plain, err = runBare(c, r.w.scale, bareOpts{})
	})
	if err != nil {
		return err
	}
	r.check(ci, plain.Totals, "peel bare")

	// The default single-run harness, cold and uncached — what one eqsim run
	// pays above the bare machine.
	h1 := exp.New(exp.Options{Parallelism: 1, GridScale: r.w.scale})
	d = r.trace.timed("exp.RunCtx cold", root, ci, func() {
		tot, _, err = h1.RunCtx(context.Background(), c.Kernel, c.Setup)
	})
	if err != nil {
		r.fails.add("peel cold RunCtx %s: %v", c, err)
	} else {
		r.check(ci, tot, "peel cold RunCtx")
		a.overhead = append(a.overhead, d.Seconds()/plain.Wall.Seconds())
	}

	// The bare machine with a probe bus recording every kind.
	bus := telemetry.NewBus(1<<16, telemetry.MaskAll)
	r.trace.timed("gpu.RunKernel +telemetry", root, ci, func() {
		br, err = runBare(c, r.w.scale, bareOpts{bus: bus})
	})
	if err != nil {
		return err
	}
	r.check(ci, br.Totals, "peel bare+telemetry")
	a.attachNS = append(a.attachNS, float64((br.Wall-plain.Wall).Nanoseconds())/cycles)
	a.eventsPerK = append(a.eventsPerK, (float64(bus.Len())+float64(bus.Dropped()))/cycles*1e3)

	// The bare machine sampled by the monitor policy against the nil-policy
	// run: the cost of per-cycle policy sampling.
	r.trace.timed("gpu.RunKernel +monitor", root, ci, func() {
		br, err = runBare(c, r.w.scale, bareOpts{policy: policy.NewMonitor()})
	})
	if err != nil {
		return err
	}
	if br.Totals.SMCycles != plain.Totals.SMCycles {
		r.fails.add("peel monitor %s: %d cycles with the monitor, %d without", c, br.Totals.SMCycles, plain.Totals.SMCycles)
	}
	a.sampleNS = append(a.sampleNS, float64((br.Wall-plain.Wall).Nanoseconds())/cycles)
	return nil
}

// peelSweep times a warm /v1/sweep of the cell's kernel under the three
// setups, per cell. It runs after every cell's cold request, because its
// first call simulates whatever the peel has not.
func (r *runner) peelSweep(a *peelAcc, ps *peelService, ci int) error {
	c := r.cells[ci]
	sw, err := json.Marshal(service.SweepSpec{Kernels: []string{c.Kernel.Name},
		Setups: []service.RunSpec{{Policy: "baseline"}, {Policy: "equalizer-energy"}, {Policy: "equalizer-perf"}}})
	if err != nil {
		return err
	}
	var st []float64
	for i := 0; i <= ps.reps; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(sw))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		ps.handler.ServeHTTP(rec, req)
		if i > 0 {
			st = append(st, us(time.Since(t0))/3)
		}
		if rec.Code != http.StatusOK {
			r.fails.add("peel sweep %s: status %d", c.Kernel.Name, rec.Code)
			return nil
		}
	}
	a.sweepCell = append(a.sweepCell, median(st))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// modelCounts sums the modelled hardware's counters, as Machine.Collect
// exports them, over the reference cells. They are simulated and exact; they
// say how often per cycle each micro-cost is paid and show a model change
// before sim_cycles does.
func (r *runner) modelCounts(m map[string]float64, refs []int) {
	var issued, smCycles, smActive float64
	var l1Hit, l1Miss, l1Merged, l1Reject float64
	var l2Hit, l2Miss, l2Merged float64
	var pushed, stalled, serviced float64
	var cycles, dramUtil, dramDepth float64
	for _, ci := range refs {
		reg := r.counts[ci]
		ctr := func(name string, labels telemetry.Labels) float64 {
			return float64(reg.Counter(name, "", labels).Value())
		}
		for i := 0; i < config.Default().NumSMs; i++ {
			sl := strconv.Itoa(i)
			smCycles += ctr("eq_sm_cycles_total", telemetry.Labels{"sm": sl, "state": "total"})
			smActive += ctr("eq_sm_cycles_total", telemetry.Labels{"sm": sl, "state": "active"})
			for _, pipe := range []string{"alu", "sfu", "mem", "tex"} {
				issued += ctr("eq_sm_issued_total", telemetry.Labels{"sm": sl, "pipe": pipe})
			}
			l1Hit += ctr("eq_l1_accesses_total", telemetry.Labels{"sm": sl, "result": "hit"})
			l1Miss += ctr("eq_l1_accesses_total", telemetry.Labels{"sm": sl, "result": "miss"})
			l1Merged += ctr("eq_l1_accesses_total", telemetry.Labels{"sm": sl, "result": "merged"})
			l1Reject += ctr("eq_l1_accesses_total", telemetry.Labels{"sm": sl, "result": "reject"})
		}
		l2Hit += ctr("eq_l2_accesses_total", telemetry.Labels{"partition": "0", "result": "hit"})
		l2Miss += ctr("eq_l2_accesses_total", telemetry.Labels{"partition": "0", "result": "miss"})
		l2Merged += ctr("eq_l2_accesses_total", telemetry.Labels{"partition": "0", "result": "merged"})
		pushed += ctr("eq_icnt_requests_total", telemetry.Labels{"partition": "0", "event": "pushed"})
		stalled += ctr("eq_icnt_requests_total", telemetry.Labels{"partition": "0", "event": "stalled"})
		serviced += ctr("eq_dram_requests_total", telemetry.Labels{"partition": "0", "event": "serviced"})
		// The two DRAM gauges are per-machine ratios; weight them by the
		// cell's cycles.
		c := float64(r.bare[ci].Totals.SMCycles)
		part := telemetry.Labels{"partition": "0"}
		cycles += c
		dramUtil += c * reg.Gauge("eq_dram_utilization", "", part).Value()
		dramDepth += c * reg.Gauge("eq_dram_mean_queue_depth", "", part).Value()
	}
	l1 := l1Hit + l1Miss + l1Merged
	l2 := l2Hit + l2Miss + l2Merged
	m["sm.ipc"] = ratio(issued, smCycles)
	m["sm.active_cycle_ratio"] = ratio(smActive, smCycles)
	m["cache.l1_accesses_per_kcycle"] = ratio(l1, cycles) * 1e3
	m["cache.l1_hit_ratio"] = ratio(l1Hit, l1)
	m["cache.l1_reject_ratio"] = ratio(l1Reject, l1+l1Reject)
	m["cache.l2_accesses_per_kcycle"] = ratio(l2, cycles) * 1e3
	m["cache.l2_hit_ratio"] = ratio(l2Hit, l2)
	m["icnt.pushed_per_kcycle"] = ratio(pushed, cycles) * 1e3
	m["icnt.stall_ratio"] = ratio(stalled, pushed+stalled)
	m["dram.serviced_per_kcycle"] = ratio(serviced, cycles) * 1e3
	m["dram.utilization"] = ratio(dramUtil, cycles)
	m["dram.mean_queue_depth"] = ratio(dramDepth, cycles)
}

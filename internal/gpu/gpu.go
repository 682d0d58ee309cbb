// Package gpu composes the full simulated machine: 15 SMs on one clock
// domain; the interconnect, shared L2, memory controller and DRAM on a
// second, independently scaled domain; a global work distribution engine
// (GWDE) that hands thread blocks to SMs; and the power meter. A pluggable
// Policy observes the machine every SM cycle and may retune the number of
// resident thread blocks and the two VF domains — Equalizer, DynCTA, CCWS
// and the static operating points are all implemented as Policies.
package gpu

import (
	"fmt"
	"slices"

	"equalizer/internal/cache"
	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/dram"
	"equalizer/internal/events"
	"equalizer/internal/icnt"
	"equalizer/internal/invariant"
	"equalizer/internal/kernels"
	"equalizer/internal/power"
	"equalizer/internal/sm"
	"equalizer/internal/telemetry"
	"equalizer/internal/warp"
)

// Policy tunes the machine at runtime. Implementations must be deterministic.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Reset prepares the policy for a new kernel invocation; the machine is
	// already configured with the kernel's occupancy limit.
	Reset(m *Machine, k kernels.Kernel)
	// OnSMCycle runs after every SM-domain cycle; smCycle counts cycles
	// within the current invocation starting at 1.
	OnSMCycle(m *Machine, now clock.Time, smCycle int64)
}

// Result summarises one kernel invocation.
type Result struct {
	// Kernel and Invocation identify the run.
	Kernel     string
	Invocation int
	// SMCycles is the number of SM-domain cycles elapsed.
	SMCycles int64
	// TimePS is wall time elapsed.
	TimePS int64
	// Energy is the decomposed energy of the invocation.
	Energy power.Breakdown
	// IPC is aggregate issued warp instructions per SM-cycle per SM.
	IPC float64
	// L1HitRate is the demand hit rate across all SMs.
	L1HitRate float64
	// DRAMUtil is the DRAM bandwidth utilisation.
	DRAMUtil float64
	// Residency is wall time spent at each (domain, level).
	Residency Residency
	// Census is the invocation's chip-wide warp-state census; RunConcurrent
	// reports it on the aggregate result only.
	Census Census
}

// Residency records VF-state wall time for Figure 9.
type Residency struct {
	SM  [3]int64
	Mem [3]int64
}

// EnergyJ returns total energy in joules.
func (r Result) EnergyJ() float64 { return r.Energy.Total() }

// Machine is the simulated GPU. A single Machine is not safe for concurrent
// use, but distinct Machines are fully independent: the exp harness runs
// parallel sweeps by building one machine per run (see exp.Harness).
type Machine struct {
	cfg  config.GPU
	pcfg power.Config

	smDomain  *clock.Domain
	memDomain *clock.Domain

	sms  []*sm.SM
	l2   *cache.Cache
	net  *icnt.Network
	dram *dram.Controller
	// l2Waiters lists, per L2 MSHR slot, the SM requests awaiting that
	// slot's fill; a list is emptied in place when the fill arrives.
	l2Waiters [][]icnt.Request
	// l2Replies delays L2 hit responses by the L2 latency.
	l2Replies events.Queue[icnt.Request]
	// freshMiss remembers, per interconnect port, a line the saturated L2
	// probed and found neither resident nor pending (see drainRequest).
	freshMiss []portLine

	// drainFn and deliverFn are the interconnect-drain and reply-delivery
	// callbacks, allocated once instead of per memory cycle; hitDelayPS and
	// lastMemNowPS carry the current cycle's times into them.
	drainFn      func(r icnt.Request) bool
	deliverFn    func(r icnt.Request)
	hitDelayPS   int64
	lastMemNowPS int64

	meter *power.Meter

	policy Policy
	// census is the running invocation's warp-state census; censusOpen and
	// censusN sum the open epoch's samples (see sampleCensus).
	census     Census
	censusOpen StateSums
	censusN    int

	// Kernel launch state: one partition per concurrently running kernel
	// (a single partition spanning every SM in the common case).
	parts []partition

	// Power attribution state.
	lastSMLevel    config.VFLevel
	lastMemLevel   config.VFLevel
	lastSMFlushPS  int64
	lastMemFlushPS int64
	activeSMTimePS int64
	seenSM         power.SMTotals
	seenMem        power.MemTotals
	memCycle       int64

	// Telemetry: bus is nil (free) until AttachTelemetry; vfRequestPS
	// records in-flight regulator requests so VF-shift events can carry
	// switching latency.
	bus         *telemetry.Bus
	vfRequestPS [2]int64
	vfRequested [2]bool
}

// New builds a machine. The policy may be nil (pure baseline, no tuning).
func New(cfg config.GPU, pcfg power.Config, policy Policy) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:       cfg,
		pcfg:      pcfg,
		smDomain:  clock.NewDomain("sm", cfg.SMClockPS, cfg.Modulation),
		memDomain: clock.NewDomain("mem", cfg.MemClockPS, cfg.Modulation),
		l2:        cache.MustNew(cfg.L2),
		net: icnt.MustNew(icnt.Config{
			NumSMs:        cfg.NumSMs,
			QueueDepth:    cfg.ICNTQueueDepth,
			DrainPerCycle: 10,
		}),
		dram: dram.MustNew(dram.Config{
			QueueDepth:      cfg.DRAMQueueDepth,
			ServiceInterval: cfg.DRAMServiceInterval,
			Latency:         cfg.DRAMLatency,
		}),
		l2Waiters:    make([][]icnt.Request, cfg.L2.MSHRs),
		freshMiss:    make([]portLine, cfg.NumSMs),
		meter:        power.NewMeter(pcfg),
		policy:       policy,
		lastSMLevel:  config.VFNormal,
		lastMemLevel: config.VFNormal,
	}
	for i := 0; i < cfg.NumSMs; i++ {
		m.sms = append(m.sms, sm.New(cfg, i))
	}
	m.drainFn = m.drainRequest
	m.deliverFn = func(r icnt.Request) {
		m.sms[r.SM].DeliverLine(r.Line, clock.Time(m.lastMemNowPS))
	}
	return m, nil
}

// AttachTelemetry wires a probe bus to the SMs (warp issue, stall census,
// block residency, CTA pausing) and to the machine itself (kernel
// boundaries, VF transitions); policies reach it through Bus. A nil bus
// detaches everything; probes on a detached machine cost nothing.
func (m *Machine) AttachTelemetry(b *telemetry.Bus) {
	m.bus = b
	for _, s := range m.sms {
		s.SetProbe(b)
	}
}

// Bus returns the attached telemetry bus (nil when detached). Policies use
// it to emit their own events; Emit on a nil bus is a no-op.
func (m *Machine) Bus() *telemetry.Bus { return m.bus }

// Policy returns the policy the machine was built with (nil for none).
func (m *Machine) Policy() Policy { return m.policy }

// Config returns the hardware configuration.
func (m *Machine) Config() config.GPU { return m.cfg }

// NumSMs returns the SM count.
func (m *Machine) NumSMs() int { return len(m.sms) }

// SM returns the i-th streaming multiprocessor.
func (m *Machine) SM(i int) *sm.SM { return m.sms[i] }

// SMLevel returns the SM domain's effective VF level.
func (m *Machine) SMLevel() config.VFLevel { return m.smDomain.Level() }

// MemLevel returns the memory domain's effective VF level.
func (m *Machine) MemLevel() config.VFLevel { return m.memDomain.Level() }

// Kernel returns the kernel of the current/last invocation (the first
// partition's kernel when several run concurrently); the zero Kernel before
// any run.
func (m *Machine) Kernel() kernels.Kernel {
	if len(m.parts) == 0 {
		return kernels.Kernel{}
	}
	return m.parts[0].kernel
}

// MaxResidentBlocks returns the per-SM occupancy limit of the first
// partition's kernel; use MaxResidentBlocksFor with concurrent kernels.
func (m *Machine) MaxResidentBlocks() int {
	if len(m.parts) == 0 {
		return m.cfg.MaxBlocksPerSM
	}
	return m.parts[0].maxRes
}

// MaxResidentBlocksFor returns the occupancy limit that applies to SM i.
func (m *Machine) MaxResidentBlocksFor(i int) int {
	return m.partitionOf(i).maxRes
}

// WctaFor returns the warps-per-block of the kernel running on SM i.
func (m *Machine) WctaFor(i int) int { return m.partitionOf(i).wcta }

// partitionOf maps an SM index to its partition.
func (m *Machine) partitionOf(i int) *partition {
	for p := range m.parts {
		if i >= m.parts[p].smLo && i < m.parts[p].smHi {
			return &m.parts[p]
		}
	}
	// No run configured yet: report hardware defaults.
	return &partition{maxRes: m.cfg.MaxBlocksPerSM, wcta: 1}
}

// RequestSMLevel asks the SM-domain voltage regulator to move to the target
// level; the change takes effect after the configured VRM delay. Requests
// are clamped to one step per call by the caller's discipline, but any valid
// target is accepted.
func (m *Machine) RequestSMLevel(target config.VFLevel) {
	delay := m.smDomain.CyclesToTime(m.cfg.VRMTransitionCycles)
	m.smDomain.RequestLevel(target, m.smDomain.Next()+delay)
	if target != m.lastSMLevel && m.bus.Enabled(telemetry.KindVFRequest) {
		now := int64(m.smDomain.Next())
		m.vfRequestPS[telemetry.DomainSM], m.vfRequested[telemetry.DomainSM] = now, true
		m.bus.Emit(now, telemetry.KindVFRequest, telemetry.DomainSM, int64(target), 0)
	}
}

// RequestMemLevel is RequestSMLevel for the memory system (interconnect, L2,
// memory controller and DRAM share the domain, Section IV-C).
func (m *Machine) RequestMemLevel(target config.VFLevel) {
	delay := m.smDomain.CyclesToTime(m.cfg.VRMTransitionCycles)
	m.memDomain.RequestLevel(target, m.memDomain.Next()+delay)
	if target != m.lastMemLevel && m.bus.Enabled(telemetry.KindVFRequest) {
		now := int64(m.memDomain.Next())
		m.vfRequestPS[telemetry.DomainMem], m.vfRequested[telemetry.DomainMem] = now, true
		m.bus.Emit(now, telemetry.KindVFRequest, telemetry.DomainMem, int64(target), 0)
	}
}

// SetLevelsImmediate forces both domains to a level with no regulator delay;
// used to establish static operating points before a run.
func (m *Machine) SetLevelsImmediate(smL, memL config.VFLevel) {
	m.flushPower()
	m.smDomain.RequestLevel(smL, 0)
	m.memDomain.RequestLevel(memL, 0)
	// A tick applies the pending level at the next boundary; levels become
	// visible to accounting at the next Step. Request with effective time 0
	// guarantees the very next tick applies them.
}

// SetTargetBlocks sets SM i's concurrency ceiling, clamped to the kernel's
// occupancy limit.
func (m *Machine) SetTargetBlocks(i, n int) {
	if limit := m.MaxResidentBlocksFor(i); n > limit {
		n = limit
	}
	m.sms[i].SetTargetBlocks(n)
}

// SetAllTargetBlocks applies SetTargetBlocks to every SM.
func (m *Machine) SetAllTargetBlocks(n int) {
	for i := range m.sms {
		m.SetTargetBlocks(i, n)
	}
}

// maxInvocationCycles bounds one invocation as a deadlock backstop.
const maxInvocationCycles = 30_000_000

// partition is the launch state of one kernel occupying the SM range
// [smLo, smHi). A single kernel uses one partition over every SM;
// RunConcurrent splits the machine.
type partition struct {
	kernel kernels.Kernel
	inv    int
	prof   *warp.Profile
	wcta   int
	maxRes int
	smLo   int
	smHi   int

	nextBlock   int
	totalBlocks int
	// finishPS is the wall time at which the partition's last block
	// completed; zero while running.
	finishPS int64
}

// Task names one kernel invocation for concurrent execution.
type Task struct {
	Kernel     kernels.Kernel
	Invocation int
}

// RunKernel simulates one invocation of k and returns its result. Machine
// state (cache contents aside from L1, VF levels) carries across calls, so
// consecutive invocations model a real launch sequence. An error is returned
// only if the invocation exceeds the cycle backstop (a simulator bug).
func (m *Machine) RunKernel(k kernels.Kernel, inv int) (Result, error) {
	results, total, err := m.run([]Task{{Kernel: k, Invocation: inv}})
	if err != nil {
		return Result{}, err
	}
	total.Kernel = results[0].Kernel
	total.Invocation = results[0].Invocation
	return total, nil
}

// RunConcurrent simulates several kernels side by side, each on its own
// even share of the SMs — the multi-kernel scenario the paper cites as the
// motivation for per-SM decision making (Section I). It returns one result
// per task (TimePS is the task's own completion time; energy and the other
// machine-wide metrics are reported on the aggregate result) plus the
// machine-wide aggregate.
func (m *Machine) RunConcurrent(tasks []Task) ([]Result, Result, error) {
	if len(tasks) == 0 {
		return nil, Result{}, fmt.Errorf("gpu: RunConcurrent needs at least one task")
	}
	if len(tasks) > m.cfg.NumSMs {
		return nil, Result{}, fmt.Errorf("gpu: %d tasks exceed %d SMs", len(tasks), m.cfg.NumSMs)
	}
	return m.run(tasks)
}

// run simulates one launch: set-up, the two-domain loop, result assembly.
func (m *Machine) run(tasks []Task) ([]Result, Result, error) {
	start, err := m.launch(tasks)
	if err != nil {
		return nil, Result{}, err
	}
	if err := m.loop(); err != nil {
		return nil, Result{}, err
	}
	results, total := m.assemble(start)
	return results, total, nil
}

// runStart is the machine state launch snapshots so assemble can report the
// invocation's deltas.
type runStart struct {
	ps       int64
	smCycles int64
	stats    sm.Stats
	l1       cache.Stats
	dram     dram.Stats
	res      Residency
}

// launch partitions the SMs among tasks, resets per-invocation machine and
// policy state, and snapshots the counters the result is measured against.
func (m *Machine) launch(tasks []Task) (runStart, error) {
	m.parts = m.parts[:0]
	n := m.cfg.NumSMs
	k := len(tasks)
	for i, task := range tasks {
		prof := task.Kernel.Profile(task.Invocation)
		if err := prof.Validate(); err != nil {
			return runStart{}, fmt.Errorf("gpu: %s invocation %d: %w",
				task.Kernel.Name, task.Invocation, err)
		}
		if len(tasks) > 1 {
			// Concurrent kernels address disjoint data: shift each
			// partition's generated warp ids into its own region.
			salted := *prof
			salted.WarpIDOffset += i * 8192
			prof = &salted
		}
		m.parts = append(m.parts, partition{
			kernel:      task.Kernel,
			inv:         task.Invocation,
			prof:        prof,
			wcta:        task.Kernel.Wcta,
			maxRes:      task.Kernel.MaxResidentBlocks(m.cfg.MaxWarpsPerSM),
			smLo:        i * n / k,
			smHi:        (i + 1) * n / k,
			totalBlocks: task.Kernel.Grid(task.Invocation),
		})
	}

	for i, s := range m.sms {
		s.Reset(false)
		s.SetTargetBlocks(m.partitionOf(i).maxRes)
		s.SetMemIssueMask(^uint64(0))
		s.SetL1Listener(nil)
	}
	m.l2.Flush()
	for i := range m.l2Waiters {
		m.l2Waiters[i] = m.l2Waiters[i][:0]
	}
	clear(m.freshMiss)
	m.l2Replies.Reset()

	if m.policy != nil {
		m.policy.Reset(m, m.parts[0].kernel)
	}
	m.census = Census{Series: m.census.Series[:0]} // the last Result holds a copy
	m.censusOpen, m.censusN = StateSums{}, 0

	startPS := int64(m.smDomain.Next())
	for p := range m.parts {
		m.bus.Emit(startPS, telemetry.KindKernelBegin, int16(p),
			int64(m.parts[p].inv), int64(m.parts[p].totalBlocks))
	}
	startSMCycles := m.smDomain.Cycle()
	m.flushPower()
	m.meter.Reset()
	return runStart{
		ps:       startPS,
		smCycles: startSMCycles,
		stats:    m.aggregateSMStats(),
		l1:       m.aggregateL1Stats(),
		dram:     m.dram.Stats(),
		res:      m.residency(),
	}, nil
}

// loop is the interleaved two-domain event loop and the canonical advance
// site for the machine-level cycle counters. It returns when every partition
// has finished and the memory system has drained, or with an error if the
// invocation exceeds the cycle backstop.
//
//eqlint:cycle-owner
func (m *Machine) loop() error {
	var smCycle int64
	for {
		if m.smDomain.Next() <= m.memDomain.Next() {
			now := m.smDomain.Tick()
			m.afterSMLevelChange(now)
			smCycle++
			period := m.smDomain.CyclesToTime(1)
			active := 0
			for _, s := range m.sms {
				s.Step(now, period)
				if s.ResidentBlocks() > 0 {
					active++
				}
			}
			m.activeSMTimePS += int64(period) * int64(active)
			m.dispatchBlocks()
			if m.policy != nil {
				m.policy.OnSMCycle(m, now, smCycle)
			}
			if smCycle%censusInterval == 0 {
				m.sampleCensus(smCycle)
			}
			if invariant.Enabled && smCycle%machineCheckInterval == 0 {
				m.verifyInvariants()
			}
			if smCycle > maxInvocationCycles {
				return fmt.Errorf("gpu: %s exceeded %d cycles",
					m.invocationLabel(), maxInvocationCycles)
			}
			if m.done(int64(now)) {
				return m.checkDrained()
			}
		} else {
			now := m.memDomain.Tick()
			m.afterMemLevelChange(now)
			m.memCycle++
			m.stepMemory(now)
		}
	}
}

// assemble flushes power attribution and reports the invocation as deltas
// against the launch snapshot: one Result per partition plus the
// machine-wide aggregate.
func (m *Machine) assemble(start runStart) ([]Result, Result) {
	m.flushPower()
	endPS := int64(m.smDomain.Next())
	endStats := m.aggregateSMStats()
	endL1 := m.aggregateL1Stats()
	endDRAM := m.dram.Stats()
	endRes := m.residency()

	total := Result{
		Kernel:     m.parts[0].kernel.Name,
		Invocation: m.parts[0].inv,
		SMCycles:   m.smDomain.Cycle() - start.smCycles,
		TimePS:     endPS - start.ps,
		Energy:     m.meter.Energy(),
		Census:     Census{Sums: m.census.Sums},
	}
	if len(m.census.Series) > 0 {
		total.Census.Series = slices.Clone(m.census.Series)
	}
	cycles := float64(total.SMCycles)
	if cycles > 0 {
		issued := float64(endStats.IssuedALU + endStats.IssuedSFU + endStats.IssuedMEM + endStats.IssuedTEX -
			start.stats.IssuedALU - start.stats.IssuedSFU - start.stats.IssuedMEM - start.stats.IssuedTEX)
		total.IPC = issued / cycles
	}
	demand := float64(endL1.Hits + endL1.Misses + endL1.Merged - start.l1.Hits - start.l1.Misses - start.l1.Merged)
	if demand > 0 {
		total.L1HitRate = float64(endL1.Hits-start.l1.Hits) / demand
	}
	if steps := endDRAM.StepCycles - start.dram.StepCycles; steps > 0 {
		total.DRAMUtil = float64(endDRAM.BusyCycles-start.dram.BusyCycles) / float64(steps)
	}
	for i := 0; i < 3; i++ {
		total.Residency.SM[i] = endRes.SM[i] - start.res.SM[i]
		total.Residency.Mem[i] = endRes.Mem[i] - start.res.Mem[i]
	}

	results := make([]Result, len(m.parts))
	for i := range m.parts {
		pt := &m.parts[i]
		results[i] = Result{
			Kernel:     pt.kernel.Name,
			Invocation: pt.inv,
			TimePS:     pt.finishPS - start.ps,
			SMCycles:   (pt.finishPS - start.ps) / int64(m.cfg.SMClockPS),
		}
	}
	return results, total
}

// machineCheckInterval spaces the machine-wide invariant sweep; it is
// coarser than the per-SM recount because every check here walks shared
// structures.
const machineCheckInterval = 4096

// invocationLabel names the running invocation(s) for diagnostics. The
// single-kernel form is stable ("NAME invocation N"); concurrent runs list
// every partition joined with "+".
func (m *Machine) invocationLabel() string {
	label := ""
	for p := range m.parts {
		if p > 0 {
			label += "+"
		}
		label += fmt.Sprintf("%s invocation %d", m.parts[p].kernel.Name, m.parts[p].inv)
	}
	return label
}

// verifyInvariants asserts machine-wide conservation laws. Only compiled
// in under the eqdebug build tag.
func (m *Machine) verifyInvariants() {
	// DVFS levels always hold one of the three architected operating
	// points, mid-transition included.
	invariant.Checkf(m.smDomain.Level().Valid(),
		"gpu: SM domain at invalid DVFS level %d", m.smDomain.Level())
	invariant.Checkf(m.memDomain.Level().Valid(),
		"gpu: memory domain at invalid DVFS level %d", m.memDomain.Level())

	// L2 accounting: every demand access resolves to exactly one outcome
	// (rejected probes are excluded from Accesses by design).
	cs := m.l2.Stats()
	invariant.Checkf(cs.Hits+cs.Misses+cs.Merged == cs.Accesses,
		"gpu: L2 stats leak: hits=%d misses=%d merged=%d accesses=%d",
		cs.Hits, cs.Misses, cs.Merged, cs.Accesses)

	// DRAM accounting: the device cannot be busy for more cycles than it
	// observed, nor finish more requests than it accepted.
	ds := m.dram.Stats()
	invariant.Checkf(ds.BusyCycles <= ds.StepCycles,
		"gpu: DRAM busy %d of %d observed cycles", ds.BusyCycles, ds.StepCycles)
	invariant.Checkf(ds.Serviced <= ds.Enqueued,
		"gpu: DRAM serviced %d of %d enqueued requests", ds.Serviced, ds.Enqueued)

	// A fresh miss adds its first waiter in the call that allocates the
	// MSHR and a fill empties the list in the step that releases it, so
	// exactly the busy slots have waiters.
	lists := 0
	for _, ws := range m.l2Waiters {
		if len(ws) > 0 {
			lists++
		}
	}
	invariant.Checkf(lists == m.l2.OutstandingMisses(),
		"gpu: L2 waiter leak: %d non-empty waiter lists, %d outstanding misses",
		lists, m.l2.OutstandingMisses())

	// The fresh-miss memo only ever names lines the L2 neither holds nor
	// tracks (drainRequest states why).
	for port, f := range m.freshMiss {
		invariant.Checkf(!f.valid || (!m.l2.Contains(f.line) && !m.l2.MissPending(f.line)),
			"gpu: stale fresh-miss memo on port %d: line %#x is resident or pending", port, f.line)
	}
}

// checkDrained verifies the conservation laws that must hold once a run has
// finished: every miss was filled and every waiter answered, every request
// the interconnect accepted reached the L2, and no L2 reply is still
// delayed. It costs O(SMs + MSHRs) per run and is always on; a violation is
// a simulator bug, reported as an error naming the invocation.
func (m *Machine) checkDrained() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("gpu: %s: run ended with %s", m.invocationLabel(), fmt.Sprintf(format, args...))
	}
	if n := m.l2.OutstandingMisses(); n != 0 {
		return fail("%d outstanding L2 misses", n)
	}
	for slot, ws := range m.l2Waiters {
		if len(ws) != 0 {
			return fail("%d requests waiting on L2 MSHR slot %d", len(ws), slot)
		}
	}
	for i, s := range m.sms {
		if n := s.L1().OutstandingMisses(); n != 0 {
			return fail("%d outstanding L1 misses on SM %d", n, i)
		}
		if n := s.L1Waiters(); n != 0 {
			return fail("%d warps waiting on L1 fills on SM %d", n, i)
		}
	}
	if ns := m.net.Stats(); ns.Pushed != ns.Delivered {
		return fail("%d requests pushed into the interconnect but %d delivered", ns.Pushed, ns.Delivered)
	}
	if n := m.l2Replies.Len(); n != 0 {
		return fail("%d L2 replies undelivered", n)
	}
	return nil
}

// done reports completion and stamps partition finish times.
func (m *Machine) done(nowPS int64) bool {
	allDone := true
	for p := range m.parts {
		pt := &m.parts[p]
		if pt.finishPS != 0 {
			continue
		}
		if pt.nextBlock < pt.totalBlocks {
			allDone = false
			continue
		}
		idle := true
		for i := pt.smLo; i < pt.smHi; i++ {
			if !m.sms[i].Idle() {
				idle = false
				break
			}
		}
		if idle {
			pt.finishPS = nowPS
			m.bus.Emit(nowPS, telemetry.KindKernelEnd, int16(p), int64(pt.inv), 0)
		} else {
			allDone = false
		}
	}
	if !allDone {
		return false
	}
	return m.net.Drained() && m.dram.Drained() && m.l2Replies.Len() == 0
}

// dispatchBlocks launches pending blocks onto SMs with free slots.
func (m *Machine) dispatchBlocks() {
	for p := range m.parts {
		pt := &m.parts[p]
		if pt.nextBlock >= pt.totalBlocks {
			continue
		}
		for i := pt.smLo; i < pt.smHi; i++ {
			s := m.sms[i]
			for pt.nextBlock < pt.totalBlocks && s.WantsBlock(pt.wcta) {
				s.LaunchBlock(pt.prof, pt.nextBlock, pt.wcta)
				pt.nextBlock++
			}
			if pt.nextBlock >= pt.totalBlocks {
				break
			}
		}
	}
}

// stepMemory advances the memory partition by one memory-domain cycle. It
// executes once per memory cycle so it must not allocate in steady state.
func (m *Machine) stepMemory(now clock.Time) {
	m.lastMemNowPS = int64(now)
	// 1. DRAM completions fill the L2 and answer every waiting SM.
	for _, line := range m.dram.Step(m.memCycle) {
		m.l2.Fill(line)
		m.seenMem.DRAM++ // counted at service for level attribution
		slot := m.l2.Slot()
		for _, req := range m.l2Waiters[slot] {
			m.sms[req.SM].DeliverLine(req.Line, now)
		}
		m.l2Waiters[slot] = m.l2Waiters[slot][:0]
	}

	// 2. Delayed L2 hit replies reach their SMs (deliverFn reads the cycle
	// time from lastMemNowPS, set above).
	m.l2Replies.PopReady(int64(now), m.deliverFn)

	// 3. SM outboxes feed the interconnect.
	for i, s := range m.sms {
		if s.OutboxFull() && m.net.CanPush(i) {
			if r, ok := s.TakeOutbox(); ok {
				m.net.Push(icnt.Request{SM: r.SM, Line: r.Line})
			}
		}
	}

	// 4. The interconnect drains into the L2 / memory controller.
	m.hitDelayPS = int64(now) + int64(m.memDomain.CyclesToTime(m.cfg.L2HitLatency))
	m.net.Drain(m.drainFn)
}

// portLine is one interconnect port's fresh-miss memo entry.
type portLine struct {
	line  cache.Addr
	valid bool
}

// drainRequest routes one interconnect request into the L2 / memory
// controller; it is the body of the once-allocated drainFn callback.
//
// While the L2 has no free MSHR or DRAM no queue slot, only a hit or a
// merge can be accepted, and a line found to be neither is refused. The
// interconnect re-offers that same head many times per memory cycle under
// saturation, so the port remembers the negative answer in freshMiss and
// later offers of the line are refused without probing the L2. The memo is
// exact: a line becomes pending only through the fresh-miss branch below,
// which forgets it on every port; it becomes resident only by a Fill of a
// pending line, so not without passing that branch first; and launch's L2
// Flush clears every entry. icnt.Drain sees the same answers as without
// the memo, so its round-robin pointer and BlockedDeliveries are unchanged.
func (m *Machine) drainRequest(r icnt.Request) bool {
	if !m.l2.MSHRsFree() || !m.dram.CanAccept() {
		f := &m.freshMiss[r.SM]
		if f.valid && f.line == r.Line {
			return false // back-pressure: request stays in the network
		}
		if !m.l2.Contains(r.Line) && !m.l2.MissPending(r.Line) {
			*f = portLine{line: r.Line, valid: true}
			return false
		}
	}
	m.seenMem.L2++
	switch m.l2.Access(r.Line) {
	case cache.Hit:
		m.l2Replies.Push(m.hitDelayPS, r)
	case cache.Miss:
		m.dram.Enqueue(r.Line)
		for i := range m.freshMiss {
			if m.freshMiss[i].line == r.Line {
				m.freshMiss[i].valid = false
			}
		}
		m.addL2Waiter(r)
	default: // MergedMiss; Reject is impossible with an MSHR free or the line pending
		m.addL2Waiter(r)
	}
	return true
}

// addL2Waiter records a request awaiting the L2 miss the last Access
// allocated or merged into.
func (m *Machine) addL2Waiter(r icnt.Request) {
	slot := m.l2.Slot()
	m.l2Waiters[slot] = append(m.l2Waiters[slot], r)
}

// --- power attribution ------------------------------------------------------

func (m *Machine) aggregateSMStats() sm.Stats {
	var total sm.Stats
	for _, s := range m.sms {
		st := s.Stats()
		total.IssuedALU += st.IssuedALU
		total.IssuedSFU += st.IssuedSFU
		total.IssuedMEM += st.IssuedMEM
		total.IssuedTEX += st.IssuedTEX
		total.L1LineAccesses += st.L1LineAccesses
	}
	return total
}

func (m *Machine) aggregateL1Stats() cache.Stats {
	var total cache.Stats
	for _, s := range m.sms {
		st := s.L1().Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Merged += st.Merged
		total.Accesses += st.Accesses
	}
	return total
}

func (m *Machine) residency() Residency {
	var r Residency
	lo, no, hi := m.smDomain.Residency()
	r.SM = [3]int64{int64(lo), int64(no), int64(hi)}
	lo, no, hi = m.memDomain.Residency()
	r.Mem = [3]int64{int64(lo), int64(no), int64(hi)}
	return r
}

// afterSMLevelChange flushes accumulated SM activity to the meter when the
// effective level changed at this tick.
func (m *Machine) afterSMLevelChange(now clock.Time) {
	if m.smDomain.Level() == m.lastSMLevel {
		return
	}
	m.flushSMPower(int64(now))
	m.lastSMLevel = m.smDomain.Level()
	m.emitVFShift(telemetry.DomainSM, int64(now), m.lastSMLevel)
}

func (m *Machine) afterMemLevelChange(now clock.Time) {
	if m.memDomain.Level() == m.lastMemLevel {
		return
	}
	m.flushMemPower(int64(now))
	m.lastMemLevel = m.memDomain.Level()
	m.emitVFShift(telemetry.DomainMem, int64(now), m.lastMemLevel)
}

// emitVFShift records a VF level becoming effective, carrying the
// request-to-effective switching latency when the request was observed.
func (m *Machine) emitVFShift(domain int16, nowPS int64, level config.VFLevel) {
	if !m.bus.Enabled(telemetry.KindVFShift) {
		return
	}
	var latency int64
	if m.vfRequested[domain] {
		latency = nowPS - m.vfRequestPS[domain]
		m.vfRequested[domain] = false
	}
	m.bus.Emit(nowPS, telemetry.KindVFShift, domain, int64(level), latency)
}

func (m *Machine) flushSMPower(nowPS int64) {
	cur := m.aggregateSMStats()
	d := power.SMTotals{
		ALU:            cur.IssuedALU - m.seenSM.ALU,
		SFU:            cur.IssuedSFU - m.seenSM.SFU,
		MEM:            cur.IssuedMEM + cur.IssuedTEX - m.seenSM.MEM,
		L1:             cur.L1LineAccesses - m.seenSM.L1,
		ActiveSMTimePS: m.activeSMTimePS,
		TimePS:         nowPS - m.lastSMFlushPS,
	}
	m.meter.AccumulateSM(m.lastSMLevel, d)
	m.seenSM.ALU, m.seenSM.SFU, m.seenSM.MEM, m.seenSM.L1 =
		cur.IssuedALU, cur.IssuedSFU, cur.IssuedMEM+cur.IssuedTEX, cur.L1LineAccesses
	m.activeSMTimePS = 0
	m.lastSMFlushPS = nowPS
}

func (m *Machine) flushMemPower(nowPS int64) {
	d := power.MemTotals{
		L2:     m.seenMem.L2,
		DRAM:   m.seenMem.DRAM,
		TimePS: nowPS - m.lastMemFlushPS,
	}
	m.meter.AccumulateMem(m.lastMemLevel, d)
	m.seenMem.L2, m.seenMem.DRAM = 0, 0
	m.lastMemFlushPS = nowPS
}

// flushPower flushes both domains at the current boundaries.
func (m *Machine) flushPower() {
	m.flushSMPower(int64(m.smDomain.Next()))
	m.flushMemPower(int64(m.memDomain.Next()))
	m.lastSMLevel = m.smDomain.Level()
	m.lastMemLevel = m.memDomain.Level()
}

// Package core implements Equalizer, the paper's contribution: a low
// overhead hardware runtime that samples the state of each SM's warps
// through four counters (active, waiting, excess-ALU, excess-memory), runs
// the decision algorithm of Section III-B at the end of every 4096-cycle
// epoch, and retunes three architectural parameters in a coordinated way:
//
//   - the number of concurrent thread blocks on each SM (via CTA pausing,
//     with a three-epoch hysteresis against spurious changes);
//   - the SM voltage/frequency level; and
//   - the memory-system voltage/frequency level,
//
// where the two frequency decisions are taken globally by a frequency
// manager that holds a majority vote across the per-SM preferences.
//
// Equalizer runs in one of two modes (Table I): EnergyMode throttles the
// under-utilised resource; PerformanceMode boosts the bottleneck resource.
package core

import (
	"fmt"

	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/gpu"
	"equalizer/internal/invariant"
	"equalizer/internal/kernels"
	"equalizer/internal/telemetry"
)

// Mode is Equalizer's objective.
type Mode int

const (
	// EnergyMode saves energy by throttling under-utilised resources.
	EnergyMode Mode = iota
	// PerformanceMode boosts the bottleneck resource.
	PerformanceMode
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case EnergyMode:
		return "energy"
	case PerformanceMode:
		return "performance"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Tendency is the kernel inclination detected by Algorithm 1 in one epoch.
type Tendency int

const (
	// TendNone marks a degenerate epoch: no parameter is changed.
	TendNone Tendency = iota
	// TendCompute marks compute-pipeline contention (CompAction).
	TendCompute
	// TendMemory marks memory-system contention (MemAction).
	TendMemory
)

// String returns the tendency name.
func (t Tendency) String() string {
	switch t {
	case TendNone:
		return "none"
	case TendCompute:
		return "compute"
	case TendMemory:
		return "memory"
	default:
		return fmt.Sprintf("Tendency(%d)", int(t))
	}
}

// Decision is the per-SM outcome of one epoch of Algorithm 1.
type Decision struct {
	// BlockDelta is -1, 0 or +1 resident thread blocks.
	BlockDelta int
	// Tendency selects CompAction/MemAction for the frequency vote.
	Tendency Tendency
}

// Counters are the four accumulated hardware counters of one epoch,
// normalised to per-sample averages (warp counts).
type Counters struct {
	// Active is the mean number of resident, unpaused, unfinished warps.
	Active float64
	// Waiting is the mean number of warps waiting on operands.
	Waiting float64
	// XALU is the mean number of ready-ALU warps that could not issue.
	XALU float64
	// XMEM is the mean number of ready-memory warps blocked by the LSU.
	XMEM float64
}

// Decide is Algorithm 1 of the paper. wcta is the number of warps per
// thread block; memSat is the bandwidth-saturation floor (2 in the paper).
func Decide(c Counters, wcta int, memSat int) Decision {
	w := float64(wcta)
	switch {
	case c.XMEM > w: // definitely memory intensive
		return Decision{BlockDelta: -1, Tendency: TendMemory}
	case c.XALU > w: // definitely compute intensive
		return Decision{Tendency: TendCompute}
	case c.XMEM > float64(memSat): // likely memory intensive
		return Decision{Tendency: TendMemory}
	case c.Waiting > c.Active/2: // close to ideal kernel: feed it more work
		d := Decision{BlockDelta: +1}
		if c.XALU > c.XMEM {
			d.Tendency = TendCompute
		} else {
			d.Tendency = TendMemory
		}
		return d
	case c.Active == 0: // idle SM: finish the imbalanced kernel early
		return Decision{Tendency: TendCompute}
	default: // degenerate: no parameter change
		return Decision{}
	}
}

// Vote is one SM's VF-level preference for the two domains, in steps of
// -1 (decrease), 0 (maintain), +1 (increase).
type Vote struct {
	SM, Mem int
}

// VoteFor maps a tendency and objective to the frequency actions of Table I:
//
//	kernel    objective    SM freq    DRAM freq
//	compute   energy       maintain   decrease
//	compute   performance  increase   maintain
//	memory*   energy       decrease   maintain
//	memory*   performance  maintain   increase
//
// (*cache-sensitive kernels are unified with memory-intensive ones,
// Section III-A.)
//
// "Maintain" is implemented as restore-towards-nominal: when a kernel's
// tendency flips between phases (mri-g, spmv), a domain throttled or boosted
// for the previous phase drifts back to the nominal point instead of
// sticking for the rest of the run. EnergyMode never raises a domain above
// nominal and PerformanceMode never drops one below nominal — the caller
// enforces those bounds via LevelBounds.
func VoteFor(t Tendency, mode Mode) Vote {
	// The pressure direction is the same in both modes — favour the
	// bottleneck domain, starve the idle one; the mode's LevelBounds decide
	// whether that manifests as a boost (performance) or a throttle
	// (energy). The mode parameter is kept for API symmetry with Table I.
	_ = mode
	switch t {
	case TendCompute:
		return Vote{SM: +1, Mem: -1}
	case TendMemory:
		return Vote{SM: -1, Mem: +1}
	default:
		return Vote{}
	}
}

// LevelBounds returns the [min, max] VF levels a mode may command: energy
// mode only throttles (never exceeds nominal) and performance mode only
// boosts (never drops below nominal).
func LevelBounds(mode Mode) (lo, hi config.VFLevel) {
	if mode == EnergyMode {
		return config.VFLow, config.VFNormal
	}
	return config.VFNormal, config.VFHigh
}

// Clamp bounds a level to the mode's allowed range.
func Clamp(l config.VFLevel, mode Mode) config.VFLevel {
	lo, hi := LevelBounds(mode)
	if l < lo {
		return lo
	}
	if l > hi {
		return hi
	}
	return l
}

// Majority tallies the per-SM votes and returns the global step for each
// domain: a domain moves only when a strict majority of SMs agree on the
// direction (Section IV-C).
func Majority(votes []Vote) (smStep, memStep int) {
	var smUp, smDown, memUp, memDown int
	for _, v := range votes {
		switch {
		case v.SM > 0:
			smUp++
		case v.SM < 0:
			smDown++
		}
		switch {
		case v.Mem > 0:
			memUp++
		case v.Mem < 0:
			memDown++
		}
	}
	half := len(votes) / 2
	switch {
	case smUp > half:
		smStep = +1
	case smDown > half:
		smStep = -1
	}
	switch {
	case memUp > half:
		memStep = +1
	case memDown > half:
		memStep = -1
	}
	return smStep, memStep
}

// TracePoint is one epoch of recorded counters, for the adaptivity studies
// (Figures 2b and 11b).
type TracePoint struct {
	// Epoch is the 1-based epoch index within the invocation.
	Epoch int
	// Counters are the SM's per-sample averages for the epoch.
	Counters Counters
	// TargetBlocks is the SM's concurrency ceiling after the decision.
	TargetBlocks int
	// ActiveWarps is the mean active warp count (post-pausing concurrency).
	ActiveWarps float64
	// SMLevel and MemLevel are the effective VF levels at epoch end.
	SMLevel, MemLevel config.VFLevel
}

// smAccum accumulates one SM's samples within the current epoch.
type smAccum struct {
	active, waiting, xalu, xmem int64
	samples                     int
	// streak tracks consecutive epochs whose block decision differed from
	// the current target in the same direction.
	streak    int
	streakDir int
}

// Equalizer is the runtime system; it implements gpu.Policy.
type Equalizer struct {
	mode Mode
	cfg  config.Equalizer

	// Record enables per-epoch trace collection on every SM.
	Record bool

	// wcta is the running kernel's warps per block, Algorithm 1's W_cta.
	wcta   int
	accum  []smAccum
	votes  []Vote
	traces [][]TracePoint
	epoch  int
}

var _ gpu.Policy = (*Equalizer)(nil)

// New builds an Equalizer policy in the given mode with the paper's default
// runtime parameters.
func New(mode Mode) *Equalizer {
	return NewWithConfig(mode, config.DefaultEqualizer())
}

// NewWithConfig builds an Equalizer with explicit runtime parameters; it
// panics on an invalid configuration.
func NewWithConfig(mode Mode, cfg config.Equalizer) *Equalizer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Equalizer{mode: mode, cfg: cfg}
}

// Mode returns the objective.
func (e *Equalizer) Mode() Mode { return e.mode }

// Name implements gpu.Policy.
func (e *Equalizer) Name() string { return "equalizer-" + e.mode.String() }

// Trace returns SM 0's recorded per-epoch points (Record must be set before
// the run). The adaptivity figures plot SM 0 as the representative SM.
func (e *Equalizer) Trace() []TracePoint { return e.TraceSM(0) }

// TraceSM returns the recorded per-epoch points of one SM, or nil when the
// index is out of range or nothing was recorded.
func (e *Equalizer) TraceSM(i int) []TracePoint {
	if i < 0 || i >= len(e.traces) {
		return nil
	}
	return e.traces[i]
}

// Reset implements gpu.Policy. Every SM's W_cta threshold is k.Wcta, the
// warps per block of the kernel the machine is about to run.
//
//eqlint:cycle-owner
func (e *Equalizer) Reset(m *gpu.Machine, k kernels.Kernel) {
	n := m.NumSMs()
	e.wcta = k.Wcta
	e.accum = make([]smAccum, n)
	e.votes = make([]Vote, n)
	e.traces = make([][]TracePoint, n)
	e.epoch = 0
}

// OnSMCycle implements gpu.Policy: sample every SampleInterval cycles,
// decide at every epoch boundary.
//
//eqlint:cycle-owner
func (e *Equalizer) OnSMCycle(m *gpu.Machine, now clock.Time, smCycle int64) {
	if smCycle%int64(e.cfg.SampleInterval) != 0 {
		return
	}
	for i := range e.accum {
		snap := m.SM(i).Snapshot()
		a := &e.accum[i]
		a.active += int64(snap.Active)
		a.waiting += int64(snap.Waiting)
		a.xalu += int64(snap.XALU)
		a.xmem += int64(snap.XMEM)
		a.samples++
	}
	if smCycle%int64(e.cfg.EpochCycles) != 0 {
		return
	}
	e.epoch++
	e.decideEpoch(m, int64(now))
}

func (e *Equalizer) decideEpoch(m *gpu.Machine, nowPS int64) {
	bus := m.Bus()
	for i := range e.accum {
		a := &e.accum[i]
		c := a.counters()
		d := Decide(c, e.wcta, e.cfg.MemSaturationWarps)
		bus.Emit(nowPS, telemetry.KindEpochDecision, int16(i),
			int64(d.Tendency), int64(d.BlockDelta))
		e.votes[i] = VoteFor(d.Tendency, e.mode)
		if !e.cfg.DisableBlocks {
			e.applyBlockDecision(m, i, a, d.BlockDelta)
		}
		if e.Record {
			e.traces[i] = append(e.traces[i], TracePoint{
				Epoch:        e.epoch,
				Counters:     c,
				TargetBlocks: m.SM(i).TargetBlocks(),
				ActiveWarps:  c.Active,
				SMLevel:      m.SMLevel(),
				MemLevel:     m.MemLevel(),
			})
		}
		a.reset()
	}

	smStep, memStep := Majority(e.votes)
	if !e.cfg.DisableFrequency {
		if smStep != 0 {
			m.RequestSMLevel(Clamp(m.SMLevel().Step(smStep), e.mode))
		}
		if memStep != 0 {
			m.RequestMemLevel(Clamp(m.MemLevel().Step(memStep), e.mode))
		}
	}
	// The packed vote outcome biases each step by +1 so that the two-bit
	// fields stay non-negative: 0=down 1=hold 2=up.
	bus.Emit(nowPS, telemetry.KindEpoch, -1, int64(e.epoch),
		int64(smStep+1)<<2|int64(memStep+1))
}

// applyBlockDecision enforces the three-consecutive-epoch hysteresis of
// Section IV-B before changing the SM's resident block count by one step.
func (e *Equalizer) applyBlockDecision(m *gpu.Machine, smIdx int, a *smAccum, delta int) {
	if delta == 0 {
		a.streak, a.streakDir = 0, 0
		return
	}
	// An increase request at the ceiling (or decrease at the floor) is a
	// no-op; do not accumulate a streak for it.
	cur := m.SM(smIdx).TargetBlocks()
	if (delta > 0 && cur >= m.MaxResidentBlocks()) || (delta < 0 && cur <= 1) {
		a.streak, a.streakDir = 0, 0
		return
	}
	if a.streakDir == delta {
		a.streak++
	} else {
		a.streak, a.streakDir = 1, delta
	}
	if a.streak < e.cfg.Hysteresis {
		if invariant.Enabled {
			e.verifyHysteresis(a)
		}
		return
	}
	m.SetTargetBlocks(smIdx, cur+delta)
	a.streak, a.streakDir = 0, 0
}

// verifyHysteresis asserts the streak state machine's reachable states:
// the streak saturates below the hysteresis threshold (it resets on the
// epoch it fires), and a zero streak never carries a direction. Only
// compiled in under the eqdebug build tag.
func (e *Equalizer) verifyHysteresis(a *smAccum) {
	invariant.Checkf(0 <= a.streak && a.streak < e.cfg.Hysteresis,
		"equalizer: streak %d outside [0, %d)", a.streak, e.cfg.Hysteresis)
	invariant.Checkf((a.streak == 0) == (a.streakDir == 0),
		"equalizer: streak %d with direction %d", a.streak, a.streakDir)
	invariant.Checkf(a.streakDir >= -1 && a.streakDir <= 1,
		"equalizer: streak direction %d not in {-1, 0, +1}", a.streakDir)
}

func (a *smAccum) counters() Counters {
	if a.samples == 0 {
		return Counters{}
	}
	n := float64(a.samples)
	return Counters{
		Active:  float64(a.active) / n,
		Waiting: float64(a.waiting) / n,
		XALU:    float64(a.xalu) / n,
		XMEM:    float64(a.xmem) / n,
	}
}

func (a *smAccum) reset() {
	a.active, a.waiting, a.xalu, a.xmem = 0, 0, 0, 0
	a.samples = 0
}

// ActionRow is one line of Table I.
type ActionRow struct {
	Kernel, Objective, SMFreq, DRAMFreq, Blocks string
}

// ActionTable returns Table I of the paper: the action taken on each
// parameter for every (kernel type, objective) pair.
func ActionTable() []ActionRow {
	return []ActionRow{
		{"compute", "energy", "maintain", "decrease", "maximum"},
		{"compute", "performance", "increase", "maintain", "maximum"},
		{"memory", "energy", "decrease", "maintain", "maximum"},
		{"memory", "performance", "maintain", "increase", "maximum"},
		{"cache", "energy", "decrease", "maintain", "optimal"},
		{"cache", "performance", "maintain", "increase", "optimal"},
	}
}

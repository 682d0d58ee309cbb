// Package config defines the hardware configuration of the simulated GPU and
// the tuning parameters of the Equalizer runtime. The defaults reproduce the
// Fermi-style (GTX 480) machine of Table III in the MICRO 2014 paper:
// 15 SMs, 32 PEs per SM, at most 8 thread blocks and 48 warps per SM, a
// 64-set/4-way/128-byte-line L1 data cache, and ±15% voltage/frequency
// modulation on both the SM and the memory-system clock domains.
package config

import "fmt"

// VFLevel is a discrete voltage/frequency operating point of a clock domain.
// The paper uses three steps per domain (Section IV-C): nominal frequency,
// nominal reduced by 15%, and nominal increased by 15%. Voltage is assumed to
// scale linearly with frequency.
type VFLevel int

const (
	// VFLow runs the domain 15% below nominal frequency (and voltage).
	VFLow VFLevel = iota
	// VFNormal is the baseline operating point.
	VFNormal
	// VFHigh runs the domain 15% above nominal frequency (and voltage).
	VFHigh
)

// String returns the human-readable name of the level.
func (l VFLevel) String() string {
	switch l {
	case VFLow:
		return "low"
	case VFNormal:
		return "normal"
	case VFHigh:
		return "high"
	default:
		return fmt.Sprintf("VFLevel(%d)", int(l))
	}
}

// Valid reports whether l is one of the three defined operating points.
func (l VFLevel) Valid() bool { return l >= VFLow && l <= VFHigh }

// Step moves one discrete step towards the requested direction and reports
// the new level. Frequency changes are always gradual (Section IV-C): a
// request to go from low to high first lands on normal.
func (l VFLevel) Step(delta int) VFLevel {
	switch {
	case delta > 0 && l < VFHigh:
		return l + 1
	case delta < 0 && l > VFLow:
		return l - 1
	default:
		return l
	}
}

// Multiplier returns the frequency (and voltage) multiplier of the level
// relative to nominal, given the modulation fraction (0.15 for ±15%).
func (l VFLevel) Multiplier(modulation float64) float64 {
	switch l {
	case VFLow:
		return 1 - modulation
	case VFHigh:
		return 1 + modulation
	default:
		return 1
	}
}

// MaxWarpsPerSMLimit bounds MaxWarpsPerSM: the SM's warp scheduler keeps one
// bit per warp slot in a 64-bit word.
const MaxWarpsPerSMLimit = 64

// GPU collects every architectural parameter of the simulated machine.
type GPU struct {
	// NumSMs is the number of streaming multiprocessors (15 for GTX480).
	NumSMs int
	// PEsPerSM is the number of processing elements (FPUs) per SM.
	PEsPerSM int
	// MaxBlocksPerSM is the hardware limit of resident thread blocks.
	MaxBlocksPerSM int
	// MaxWarpsPerSM is the hardware limit of resident warps (48 on Fermi),
	// at most MaxWarpsPerSMLimit.
	MaxWarpsPerSM int
	// WarpSize is the number of threads per warp.
	WarpSize int

	// ALUIssuePerCycle is the number of warp instructions the scheduler can
	// issue to the arithmetic pipeline per SM cycle (dual-issue Fermi: one
	// per scheduler; we model one ALU slot and one MEM slot).
	ALUIssuePerCycle int
	// MemIssuePerCycle is the number of warp instructions that can be issued
	// to the load/store pipeline per SM cycle.
	MemIssuePerCycle int
	// ALULatency is the dependent-instruction latency of arithmetic ops in
	// SM cycles.
	ALULatency int
	// SFULatency is the latency of special-function ops in SM cycles.
	SFULatency int
	// LSUQueueDepth is the capacity of the per-SM load/store queue. When the
	// queue is full, ready memory warps stall in the Xmem state.
	LSUQueueDepth int

	// L1 is the per-SM L1 data cache geometry.
	L1 Cache
	// L2 is the shared L2 cache geometry.
	L2 Cache
	// L1HitLatency is the load-to-use latency of an L1 hit, in SM cycles.
	L1HitLatency int
	// L2HitLatency is the additional latency of an L2 hit, in memory-domain
	// cycles, including interconnect traversal.
	L2HitLatency int
	// DRAMLatency is the additional latency of a DRAM access, in
	// memory-domain cycles, when the controller queue is empty.
	DRAMLatency int

	// ICNTQueueDepth bounds in-flight requests between one SM and L2. When
	// full, L1 misses cannot leave the SM and the LSU backs up.
	ICNTQueueDepth int
	// DRAMQueueDepth bounds the memory-controller request queue.
	DRAMQueueDepth int
	// DRAMServiceInterval is the number of memory-domain cycles between
	// completed 128-byte DRAM requests at nominal frequency; it encodes the
	// aggregate board bandwidth.
	DRAMServiceInterval int

	// SMClockPS is the nominal SM clock period in picoseconds.
	SMClockPS int64
	// MemClockPS is the nominal memory-system clock period in picoseconds.
	MemClockPS int64
	// Modulation is the VF modulation fraction for both domains (0.15).
	Modulation float64
	// VRMTransitionCycles is the number of SM cycles a voltage-regulator
	// transition takes before a new VF level becomes effective.
	VRMTransitionCycles int
}

// Cache describes a set-associative cache.
type Cache struct {
	// Sets is the number of cache sets.
	Sets int
	// Ways is the associativity.
	Ways int
	// LineBytes is the cache-line size in bytes.
	LineBytes int
	// MSHRs is the number of miss-status holding registers; it bounds
	// outstanding misses before the cache back-pressures its requesters.
	MSHRs int
}

// Bytes returns the total capacity of the cache.
func (c Cache) Bytes() int { return c.Sets * c.Ways * c.LineBytes }

// Equalizer collects the runtime-system tuning parameters of Section IV.
type Equalizer struct {
	// SampleInterval is the number of SM cycles between instruction-buffer
	// samples (128 in the paper).
	SampleInterval int
	// EpochCycles is the decision window in SM cycles (4096 in the paper).
	EpochCycles int
	// Hysteresis is the number of consecutive epoch decisions that must
	// agree before the resident block count is changed (3 in the paper).
	Hysteresis int
	// MemSaturationWarps is the Xmem floor that indicates bandwidth
	// saturation (2 in the paper, Section III-A).
	MemSaturationWarps int
	// DisableFrequency and DisableBlocks turn off the VF or the block-count
	// actuator (Figure 11 isolates block control); zero is the paper's.
	DisableFrequency, DisableBlocks bool
}

// Default returns the Table III machine.
func Default() GPU {
	return GPU{
		NumSMs:         15,
		PEsPerSM:       32,
		MaxBlocksPerSM: 8,
		MaxWarpsPerSM:  48,
		WarpSize:       32,

		ALUIssuePerCycle: 1,
		MemIssuePerCycle: 1,
		ALULatency:       10,
		SFULatency:       20,
		LSUQueueDepth:    4,

		L1: Cache{Sets: 64, Ways: 4, LineBytes: 128, MSHRs: 32},
		// 2048 sets x 8 ways x 128 B = 2 MiB shared L2. Larger than the
		// GTX480's 768 KB so that most cache-sensitive kernels' L1-thrash
		// traffic stays L2-resident (interconnect-bound, a mild slowdown as
		// in the paper) while only the largest working sets (kmeans' big
		// input) spill to DRAM.
		L2:           Cache{Sets: 2048, Ways: 8, LineBytes: 128, MSHRs: 128},
		L1HitLatency: 24,
		L2HitLatency: 90,
		DRAMLatency:  160,

		ICNTQueueDepth:      4,
		DRAMQueueDepth:      64,
		DRAMServiceInterval: 1,

		SMClockPS:           1000,
		MemClockPS:          1000,
		Modulation:          0.15,
		VRMTransitionCycles: 512,
	}
}

// DefaultEqualizer returns the paper's runtime parameters.
func DefaultEqualizer() Equalizer {
	return Equalizer{
		SampleInterval:     128,
		EpochCycles:        4096,
		Hysteresis:         3,
		MemSaturationWarps: 2,
	}
}

// Validate reports a descriptive error when the configuration is not
// internally consistent.
func (g GPU) Validate() error {
	switch {
	case g.NumSMs <= 0:
		return fmt.Errorf("config: NumSMs must be positive, got %d", g.NumSMs)
	case g.MaxBlocksPerSM <= 0:
		return fmt.Errorf("config: MaxBlocksPerSM must be positive, got %d", g.MaxBlocksPerSM)
	case g.MaxWarpsPerSM <= 0:
		return fmt.Errorf("config: MaxWarpsPerSM must be positive, got %d", g.MaxWarpsPerSM)
	case g.MaxWarpsPerSM > MaxWarpsPerSMLimit:
		return fmt.Errorf("config: MaxWarpsPerSM %d exceeds the %d-warp limit",
			g.MaxWarpsPerSM, MaxWarpsPerSMLimit)
	case g.ALUIssuePerCycle <= 0 || g.MemIssuePerCycle <= 0:
		return fmt.Errorf("config: issue widths must be positive (alu=%d mem=%d)",
			g.ALUIssuePerCycle, g.MemIssuePerCycle)
	case g.LSUQueueDepth <= 0:
		return fmt.Errorf("config: LSUQueueDepth must be positive, got %d", g.LSUQueueDepth)
	case g.L1.Sets <= 0 || g.L1.Ways <= 0 || g.L1.LineBytes <= 0:
		return fmt.Errorf("config: invalid L1 geometry %+v", g.L1)
	case g.L2.Sets <= 0 || g.L2.Ways <= 0 || g.L2.LineBytes <= 0:
		return fmt.Errorf("config: invalid L2 geometry %+v", g.L2)
	case g.L1.LineBytes != g.L2.LineBytes:
		return fmt.Errorf("config: L1 and L2 line sizes differ (%d vs %d)",
			g.L1.LineBytes, g.L2.LineBytes)
	case g.SMClockPS <= 0 || g.MemClockPS <= 0:
		return fmt.Errorf("config: clock periods must be positive (sm=%d mem=%d)",
			g.SMClockPS, g.MemClockPS)
	case g.Modulation <= 0 || g.Modulation >= 1:
		return fmt.Errorf("config: Modulation must be in (0,1), got %g", g.Modulation)
	case g.DRAMServiceInterval <= 0:
		return fmt.Errorf("config: DRAMServiceInterval must be positive, got %d",
			g.DRAMServiceInterval)
	}
	return nil
}

// Validate reports a descriptive error when the runtime parameters are not
// internally consistent.
func (e Equalizer) Validate() error {
	switch {
	case e.SampleInterval <= 0:
		return fmt.Errorf("config: SampleInterval must be positive, got %d", e.SampleInterval)
	case e.EpochCycles <= 0:
		return fmt.Errorf("config: EpochCycles must be positive, got %d", e.EpochCycles)
	case e.EpochCycles%e.SampleInterval != 0:
		return fmt.Errorf("config: EpochCycles (%d) must be a multiple of SampleInterval (%d)",
			e.EpochCycles, e.SampleInterval)
	case e.Hysteresis <= 0:
		return fmt.Errorf("config: Hysteresis must be positive, got %d", e.Hysteresis)
	case e.MemSaturationWarps < 0:
		return fmt.Errorf("config: MemSaturationWarps must be non-negative, got %d",
			e.MemSaturationWarps)
	case e.DisableFrequency && e.DisableBlocks:
		return fmt.Errorf("config: DisableFrequency and DisableBlocks together leave Equalizer no actuator")
	}
	return nil
}

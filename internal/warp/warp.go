// Package warp models the instruction streams executed by the warps of a
// synthetic kernel. Real Rodinia/Parboil binaries are not available to a
// pure-Go simulator, so each kernel is described by a Profile: a sequence of
// Phases that set the instruction mix (ALU-to-memory ratio, dependency
// distance), the memory address pattern (streaming, private-working-set
// reuse, shared read-only), coalescing, and barriers. The generated streams
// are pure functions of (profile, warp id, program counter), so simulations
// are deterministic and replayable.
//
// The patterns are chosen so that a kernel's profile reproduces the resource
// pressure signature of its paper category (Section II): compute-intensive
// profiles keep warps in the ready-for-ALU state, streaming profiles saturate
// DRAM bandwidth, and private-reuse profiles hit in the L1 only while the
// aggregate working set of the resident warps fits in the cache.
package warp

import (
	"fmt"

	"equalizer/internal/cache"
)

// Kind is the class of an instruction.
type Kind uint8

const (
	// ALU is an arithmetic instruction issued to the compute pipeline.
	ALU Kind = iota
	// SFU is a special-function instruction (longer dependency latency),
	// also issued to the compute pipeline.
	SFU
	// MEM is a load issued to the load/store pipeline; the warp then waits
	// for the data to return before its next instruction becomes ready.
	MEM
	// TEX is a load issued through the texture unit. Texture hardware
	// tolerates far more outstanding requests than the LD/ST queue, so a
	// stalled texture stream does not surface as Xmem back-pressure — the
	// effect that makes the paper's leuko-1 kernel undetectable
	// (Section V-B).
	TEX
	// BAR is a block-wide barrier.
	BAR
	// EXIT terminates the warp.
	EXIT
)

// String returns the instruction-kind mnemonic.
func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case SFU:
		return "sfu"
	case MEM:
		return "mem"
	case TEX:
		return "tex"
	case BAR:
		return "bar"
	case EXIT:
		return "exit"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Instr is one decoded warp instruction.
type Instr struct {
	Kind Kind
	// Gap is the number of SM cycles after issue until the warp's next
	// instruction becomes ready (dependency distance). Only meaningful for
	// ALU/SFU; a MEM instruction's successor becomes ready when the data
	// returns.
	Gap int32
	// Addr is the (line-aligned by the consumer) byte address of a MEM
	// instruction's first line.
	Addr cache.Addr
	// ExtraLines is the number of additional cache lines the access touches
	// beyond the first (0 for a fully coalesced access). The consumer
	// derives their addresses via ExtraAddr.
	ExtraLines int32
}

// Pattern selects the address-generation behaviour of a phase.
type Pattern uint8

const (
	// Streaming walks fresh cache lines on every access: every reference
	// misses L1 and L2 and consumes DRAM bandwidth. Models bandwidth-bound
	// kernels (cfd, lbm).
	Streaming Pattern = iota
	// PrivateReuse cycles each warp over a private working set of
	// WorkingSetLines lines. It hits in L1 while the aggregate working set
	// of resident warps fits, and thrashes beyond that. Models
	// cache-sensitive kernels (bfs, kmeans, mummer).
	PrivateReuse
	// SharedReadOnly spreads accesses over a block-shared region sized to
	// the L2: mostly L1 misses that hit in L2, giving moderate latency
	// without DRAM pressure. Models unsaturated kernels.
	SharedReadOnly
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Streaming:
		return "streaming"
	case PrivateReuse:
		return "private-reuse"
	case SharedReadOnly:
		return "shared-readonly"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Phase is a contiguous region of a warp's instruction stream with a fixed
// behaviour. Kernels with intra-invocation variation (mri-g-1, spmv) use
// several phases.
type Phase struct {
	// Insts is the number of instructions in this phase per warp
	// (including memory instructions and the optional trailing barrier).
	Insts int
	// MemEvery issues one MEM instruction every MemEvery instructions;
	// 0 disables memory accesses in the phase.
	MemEvery int
	// ALUGap is the dependency distance of ALU instructions in SM cycles.
	ALUGap int
	// SFUEvery issues an SFU instruction (with SFUGap dependency) every
	// SFUEvery non-memory slots; 0 disables.
	SFUEvery int
	// SFUGap is the dependency distance of SFU instructions.
	SFUGap int
	// Pattern selects address generation for MEM instructions.
	Pattern Pattern
	// WorkingSetLines is the per-warp private working set (PrivateReuse).
	WorkingSetLines int
	// SharedLines is the region size in lines (SharedReadOnly).
	SharedLines int
	// ExtraLines adds uncoalesced extra line accesses per MEM instruction.
	ExtraLines int
	// Texture routes the phase's memory accesses through the texture unit
	// (emitted as TEX instead of MEM).
	Texture bool
	// Barrier ends the phase with a block-wide barrier.
	Barrier bool
}

// Validate reports a descriptive error for an unusable phase.
func (p Phase) Validate() error {
	switch {
	case p.Insts <= 0:
		return fmt.Errorf("warp: phase Insts must be positive, got %d", p.Insts)
	case p.MemEvery < 0:
		return fmt.Errorf("warp: MemEvery must be non-negative, got %d", p.MemEvery)
	case p.ALUGap < 0:
		return fmt.Errorf("warp: ALUGap must be non-negative, got %d", p.ALUGap)
	case p.Pattern == PrivateReuse && p.WorkingSetLines <= 0:
		return fmt.Errorf("warp: PrivateReuse needs WorkingSetLines > 0")
	case p.Pattern == SharedReadOnly && p.SharedLines <= 0:
		return fmt.Errorf("warp: SharedReadOnly needs SharedLines > 0")
	case p.ExtraLines < 0:
		return fmt.Errorf("warp: ExtraLines must be non-negative, got %d", p.ExtraLines)
	}
	return nil
}

// Profile is the complete per-warp behaviour of one kernel invocation.
type Profile struct {
	// Phases execute in order; the warp exits after the last.
	Phases []Phase
	// LineBytes is the cache-line size used for address generation.
	LineBytes int
	// WarpIDOffset shifts every stream's global warp id; concurrent kernels
	// on disjoint SM partitions use distinct offsets so their generated
	// address spaces cannot alias.
	WarpIDOffset int
}

// Validate reports a descriptive error for an unusable profile.
func (p Profile) Validate() error {
	if len(p.Phases) == 0 {
		return fmt.Errorf("warp: profile has no phases")
	}
	if p.LineBytes <= 0 || p.LineBytes&(p.LineBytes-1) != 0 {
		return fmt.Errorf("warp: LineBytes must be a positive power of two, got %d", p.LineBytes)
	}
	for i, ph := range p.Phases {
		if err := ph.Validate(); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
	}
	return nil
}

// Address-space layout: each generator draws from a disjoint region so the
// patterns cannot alias.
const (
	streamingBase cache.Addr = 0x1_0000_0000
	privateBase   cache.Addr = 0x2_0000_0000
	sharedBase    cache.Addr = 0x3_0000_0000
	// perWarpStride is each warp's private streaming region (64 KiB = 512
	// lines, comfortably above any profile's per-warp streaming footprint).
	// The streaming/private/shared bases are 4 GiB apart, so up to 65536
	// warp ids fit without regions aliasing.
	perWarpStride  cache.Addr = 1 << 16
	perPhaseStride cache.Addr = 1 << 30
)

// Stream generates one warp's instruction sequence. The zero value is not
// usable; construct with NewStream.
type Stream struct {
	prof *Profile
	// globalID is unique across the whole grid (blockID*warpsPerBlock+lane)
	// and partitions the generated address space.
	globalID int

	pc         int
	phase      int
	phaseStart int
	memCount   int
	done       bool
}

// NewStream builds the instruction stream of the warp with the given
// grid-unique id.
func NewStream(prof *Profile, globalID int) *Stream {
	s := &Stream{}
	s.Init(prof, globalID)
	return s
}

// Init (re)initialises s in place as the stream of the warp with the given
// grid-unique id, equivalent to *s = *NewStream(prof, globalID) without the
// allocation. The SM embeds streams by value in its warp slots and reuses
// them across block launches, keeping warp-slot turnover off the heap.
func (s *Stream) Init(prof *Profile, globalID int) {
	*s = Stream{prof: prof, globalID: globalID + prof.WarpIDOffset}
}

// Done reports whether the stream has emitted EXIT.
func (s *Stream) Done() bool { return s.done }

// Phase returns the index of the phase the next instruction belongs to, or
// len(Phases) when the stream is exhausted.
func (s *Stream) Phase() int { return s.phase }

// Next returns the next instruction. After the final phase it returns EXIT
// forever.
func (s *Stream) Next() Instr {
	if s.done || s.phase >= len(s.prof.Phases) {
		s.done = true
		return Instr{Kind: EXIT}
	}
	phaseIdx := s.phase
	ph := &s.prof.Phases[phaseIdx]
	local := s.pc - s.phaseStart
	s.pc++
	if s.pc-s.phaseStart >= ph.Insts {
		// Advance to the next phase for subsequent calls.
		s.phaseStart += ph.Insts
		s.phase++
	}

	if ph.Barrier && local == ph.Insts-1 {
		return Instr{Kind: BAR}
	}
	if ph.MemEvery > 0 && local%ph.MemEvery == ph.MemEvery-1 {
		addr := s.genAddr(ph, phaseIdx)
		s.memCount++
		kind := MEM
		if ph.Texture {
			kind = TEX
		}
		return Instr{Kind: kind, Addr: addr, ExtraLines: int32(ph.ExtraLines)}
	}
	if ph.SFUEvery > 0 && local%ph.SFUEvery == ph.SFUEvery-1 {
		return Instr{Kind: SFU, Gap: int32(ph.SFUGap)}
	}
	return Instr{Kind: ALU, Gap: int32(ph.ALUGap)}
}

func (s *Stream) genAddr(ph *Phase, phaseIdx int) cache.Addr {
	line := cache.Addr(s.prof.LineBytes)
	phaseOff := cache.Addr(phaseIdx) * perPhaseStride
	switch ph.Pattern {
	case PrivateReuse:
		// Working sets are laid out contiguously across warps so that the
		// aggregate footprint spreads uniformly over the cache sets; a
		// power-of-two per-warp stride would alias every warp's set 0.
		// The cursor advances by the full access width (1 + ExtraLines) so
		// consecutive divergent accesses tile the working set instead of
		// overlapping — the footprint stays WorkingSetLines per warp and a
		// non-fitting set truly thrashes under LRU.
		stride := 1 + ph.ExtraLines
		slot := cache.Addr((s.memCount * stride) % ph.WorkingSetLines)
		start := cache.Addr(s.globalID) * cache.Addr(ph.WorkingSetLines)
		return privateBase + phaseOff + (start+slot)*line
	case SharedReadOnly:
		// A simple stride-7 permutation decorrelates warps while staying
		// inside the shared region.
		slot := cache.Addr((s.globalID*7 + s.memCount) % ph.SharedLines)
		return sharedBase + phaseOff + slot*line
	default: // Streaming
		// The cursor advances by the full access width so divergent
		// accesses touch fresh lines instead of re-reading the previous
		// access's neighbours.
		stride := 1 + ph.ExtraLines
		return streamingBase + phaseOff + cache.Addr(s.globalID)*perWarpStride +
			cache.Addr(s.memCount*stride)*line
	}
}

// ExtraAddr derives the address of the k-th extra (uncoalesced) line of a
// MEM instruction, 1 <= k <= ExtraLines. Extra lines are adjacent to the
// base line, so a divergent access with E extras has a footprint of
// WorkingSetLines+E contiguous lines per warp — the locality structure of
// irregular-but-clustered accesses (graph frontiers, tree walks).
func ExtraAddr(base cache.Addr, k int, lineBytes int) cache.Addr {
	return base + cache.Addr(k*lineBytes)
}

// Package telemetry is the observability spine of the simulator: a
// zero-allocation probe bus that the SMs, the Equalizer runtime and the
// machine composition emit cycle-stamped events into, a named
// counter/gauge/histogram registry exported as Prometheus text, and trace
// exporters (Chrome trace-event JSON for Perfetto). The caches,
// interconnect and DRAM emit no events; their counters reach the registry
// through gpu.(*Machine).Collect.
//
// The bus is designed so that a disabled probe costs essentially nothing:
// Emit on a nil *Bus, or for a Kind outside the bus mask, is a branch and a
// return — no allocation, no lock, no write. Simulator components therefore
// keep their probe pointers permanently wired and the caller decides at run
// time whether (and how much) telemetry to pay for. Like the simulator
// itself, a Bus is single-goroutine; clone one machine (and one bus) per
// goroutine for parallel sweeps.
package telemetry

// Kind identifies the event type carried on the probe bus. Kinds are bits
// in a Bus mask, so at most 64 kinds exist.
type Kind uint8

const (
	// KindKernelBegin marks the start of one kernel invocation on every SM.
	// Src is 0; A is the invocation number; B is the grid's block count.
	KindKernelBegin Kind = iota
	// KindKernelEnd closes a KindKernelBegin when the last block finishes,
	// before the memory side drains. Src is 0; A is the invocation number.
	KindKernelEnd
	// KindEpoch marks an Equalizer epoch boundary. Src is -1 (global);
	// A is the 1-based epoch index; B packs the majority frequency vote as
	// (smStep+1)<<2 | (memStep+1).
	KindEpoch
	// KindEpochDecision is one SM's per-epoch decision. Src is the SM;
	// A is the Tendency ordinal; B is the block delta (-1, 0, +1).
	KindEpochDecision
	// KindVFRequest records a voltage-regulator transition request.
	// Src is the domain (DomainSM or DomainMem); A is the target level.
	KindVFRequest
	// KindVFShift records a VF level becoming effective. Src is the domain;
	// A is the new level; B is the request-to-effective latency in
	// picoseconds (the switching latency of the transition).
	KindVFShift
	// KindBlockLaunch records a thread block becoming resident on an SM.
	// Src is the SM; A is the grid-global block id; B packs
	// slot<<16 | warps-per-block.
	KindBlockLaunch
	// KindBlockFinish records a thread block completing. Src is the SM;
	// A is the grid-global block id; B is the slot.
	KindBlockFinish
	// KindCTAPause records the concurrency controller pausing a resident
	// block. Src is the SM; A is the block slot; B is the global block id.
	KindCTAPause
	// KindCTAUnpause reverses a KindCTAPause. Same payload.
	KindCTAUnpause
	// KindWarpIssue records one warp instruction issuing. Src is the SM;
	// A is the warp slot; B is the pipe (PipeALU..PipeTEX). High volume:
	// one event per issued instruction.
	KindWarpIssue
	// KindStallCensus is the per-cycle warp-state census of one SM. Src is
	// the SM; A packs active<<24 | waiting<<16 | xalu<<8 | xmem; B is the
	// issue count. Very high volume: one event per SM per cycle.
	KindStallCensus

	numKinds // must stay <= 64
)

// Pipe ordinals carried in KindWarpIssue's B payload.
const (
	PipeALU int64 = iota
	PipeSFU
	PipeMEM
	PipeTEX
)

// Domain ordinals carried in VF events' Src field.
const (
	DomainSM  int16 = 0
	DomainMem int16 = 1
)

// String returns the kind's wire name (used by exporters and metrics).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

var kindNames = [...]string{
	KindKernelBegin:   "kernel_begin",
	KindKernelEnd:     "kernel_end",
	KindEpoch:         "epoch",
	KindEpochDecision: "epoch_decision",
	KindVFRequest:     "vf_request",
	KindVFShift:       "vf_shift",
	KindBlockLaunch:   "block_launch",
	KindBlockFinish:   "block_finish",
	KindCTAPause:      "cta_pause",
	KindCTAUnpause:    "cta_unpause",
	KindWarpIssue:     "warp_issue",
	KindStallCensus:   "stall_census",
}

// Mask selects which kinds a bus records. The zero mask records nothing.
type Mask uint64

// MaskOf builds a mask from a kind list.
func MaskOf(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// MaskAll enables every kind.
const MaskAll = Mask(1<<numKinds - 1)

// MaskSpans enables the span-shaped, low-volume kinds the Chrome exporter
// renders: kernel/epoch boundaries, VF transitions, block residency and CTA
// pausing. This is the default for trace capture.
var MaskSpans = MaskOf(
	KindKernelBegin, KindKernelEnd, KindEpoch, KindEpochDecision,
	KindVFRequest, KindVFShift, KindBlockLaunch, KindBlockFinish,
	KindCTAPause, KindCTAUnpause,
)

// Has reports whether the mask includes k.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// Event is one probe-bus record. Payload semantics depend on Kind; see the
// kind constants. Events carry only scalars so emitting never allocates.
type Event struct {
	// TimePS is the absolute simulation time in picoseconds.
	TimePS int64
	// A and B are kind-specific payload words.
	A, B int64
	// Src is the emitting unit: an SM index or domain ordinal; 0 for the
	// kernel boundaries and -1 for the machine-global KindEpoch.
	Src int16
	// Kind is the event type.
	Kind Kind
}

// Bus is a bounded ring of events. When full, the oldest events are
// overwritten (and counted as dropped) so a trace always holds the most
// recent window. A nil *Bus is a valid, permanently disabled bus; every
// method is nil-safe (eqlint:nilsafe — the probehygiene analyzer enforces
// the leading nil guard on every pointer-receiver method).
type Bus struct {
	mask    Mask
	buf     []Event
	head    int // next write index
	count   int // valid events, <= len(buf)
	dropped uint64
}

// NewBus builds a bus holding up to capacity events of the masked kinds.
func NewBus(capacity int, mask Mask) *Bus {
	if capacity <= 0 {
		capacity = 1
	}
	return &Bus{mask: mask, buf: make([]Event, capacity)}
}

// Enabled reports whether events of kind k would be recorded. Components
// may use it to skip payload computation ahead of an Emit.
func (b *Bus) Enabled(k Kind) bool {
	return b != nil && b.mask.Has(k)
}

// Emit records one event. On a nil bus or a masked-out kind this is a
// branch and a return: no allocation, no write. The hot path of every
// instrumented component runs through here.
//
//eqlint:emitpath
func (b *Bus) Emit(timePS int64, k Kind, src int16, a, v int64) {
	if b == nil || !b.mask.Has(k) {
		return
	}
	e := &b.buf[b.head]
	e.TimePS, e.Kind, e.Src, e.A, e.B = timePS, k, src, a, v
	b.head++
	if b.head == len(b.buf) {
		b.head = 0
	}
	if b.count < len(b.buf) {
		b.count++
	} else {
		b.dropped++
	}
}

// Len returns the number of retained events.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	return b.count
}

// Dropped returns the number of events overwritten by ring wrap-around.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// Mask returns the bus's kind mask.
func (b *Bus) Mask() Mask {
	if b == nil {
		return 0
	}
	return b.mask
}

// Events returns the retained events in emission order (oldest first). The
// returned slice is a copy; the bus keeps recording.
func (b *Bus) Events() []Event {
	if b == nil || b.count == 0 {
		return nil
	}
	out := make([]Event, b.count)
	start := b.head - b.count
	if start < 0 {
		start += len(b.buf)
	}
	n := copy(out, b.buf[start:])
	if n < b.count {
		copy(out[n:], b.buf[:b.head])
	}
	return out
}

// Reset drops all retained events and the drop counter, keeping the mask
// and capacity.
func (b *Bus) Reset() {
	if b == nil {
		return
	}
	b.head, b.count, b.dropped = 0, 0, 0
}

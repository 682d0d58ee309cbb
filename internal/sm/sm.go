// Package sm models one streaming multiprocessor of the simulated GPU: the
// instruction buffer and scoreboard (abstracted as per-warp head-instruction
// state), the dual-issue warp scheduler, the load/store unit with its bounded
// queue, the per-SM L1 data cache, the block manager with CTA pausing, and
// the warp-state accounting that feeds Equalizer's four hardware counters.
//
// The SM advances one cycle at a time via Step. All timestamps are absolute
// simulation times (picoseconds) so the SM composes naturally with the
// independently clocked memory system.
package sm

import (
	"fmt"
	"math/bits"

	"equalizer/internal/cache"
	"equalizer/internal/clock"
	"equalizer/internal/config"
	"equalizer/internal/events"
	"equalizer/internal/invariant"
	"equalizer/internal/telemetry"
	"equalizer/internal/warp"
)

// State is the execution state of a warp in a given cycle, following the
// classification of Section III-A of the paper.
type State uint8

const (
	// StateUnaccounted covers warps with no valid resident context (slot
	// empty or warp finished).
	StateUnaccounted State = iota
	// StateWaiting warps wait for an operand (usually load data) or a
	// dependency gap to elapse.
	StateWaiting
	// StateIssued warps issued an instruction this cycle.
	StateIssued
	// StateXALU warps are ready for the arithmetic pipeline but were not
	// issued (scheduler issue-width contention).
	StateXALU
	// StateXMEM warps are ready to issue to the memory pipeline but are
	// blocked by LSU back-pressure or the memory issue width.
	StateXMEM
	// StateOthers covers barrier waits.
	StateOthers
	// StatePaused warps belong to a CTA paused by the concurrency
	// controller and are excluded from scheduling and accounting.
	StatePaused
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateUnaccounted:
		return "unaccounted"
	case StateWaiting:
		return "waiting"
	case StateIssued:
		return "issued"
	case StateXALU:
		return "xalu"
	case StateXMEM:
		return "xmem"
	case StateOthers:
		return "others"
	case StatePaused:
		return "paused"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Snapshot is the instantaneous warp-state census of one SM cycle — the
// values Equalizer's hardware counters sample every 128 cycles.
type Snapshot struct {
	// Active counts resident, unpaused, unfinished warps.
	Active int
	// Waiting counts warps waiting on operands.
	Waiting int
	// Issued counts warps that issued this cycle (0..2).
	Issued int
	// XALU counts ready-for-ALU warps that could not issue.
	XALU int
	// XMEM counts ready-for-memory warps that could not issue.
	XMEM int
	// Others counts barrier-blocked warps.
	Others int
}

// MemRequest is an L1 miss leaving the SM towards the memory partition.
type MemRequest struct {
	// SM is the index of the requesting SM.
	SM int
	// Line is the line-aligned address.
	Line cache.Addr
}

// Stats aggregates SM activity over a run.
type Stats struct {
	Cycles          uint64
	IssuedALU       uint64
	IssuedSFU       uint64
	IssuedMEM       uint64
	IssuedTEX       uint64
	L1LineAccesses  uint64
	BlocksLaunched  uint64
	BlocksFinished  uint64
	BarrierReleases uint64
	// ActiveCycles counts cycles with at least one resident block.
	ActiveCycles uint64
}

// IPC returns issued instructions (all pipelines) per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.IssuedALU+s.IssuedSFU+s.IssuedMEM+s.IssuedTEX) / float64(s.Cycles)
}

type warpCtx struct {
	// stream is embedded by value and re-initialised in place at block
	// launch, so warp-slot turnover never allocates.
	stream  warp.Stream
	block   int // resident block slot
	cur     warp.Instr
	hasCur  bool
	readyAt clock.Time
	// pendingLines counts outstanding line returns for the last issued MEM
	// instruction; while > 0 the warp is waiting on data.
	pendingLines int
	atBarrier    bool
	finished     bool
	valid        bool
}

type blockCtx struct {
	valid    bool
	globalID int
	paused   bool
	// warps lists warp slot indices of this block.
	warps []int
	// liveWarps counts unfinished warps.
	liveWarps int
	// barWaiting counts warps currently at the barrier.
	barWaiting int
}

type lsuEntry struct {
	warp int
	base cache.Addr
	// linesLeft counts line accesses still to perform (1 + extras).
	linesLeft int
	// nextLine indexes the next line to access (0 = base).
	nextLine int
}

// schedMasks are the bitset scheduler's warp sets, bit i for warp slot i.
type schedMasks struct {
	// valid: valid && !finished. paused: block paused. barrier: atBarrier.
	// pending: pendingLines > 0. gap: now < readyAt as of the last gapQueue
	// pop.
	valid, paused, barrier, pending, gap uint64
	// alu, mem, tex and barExit classify fetched head instructions.
	alu, mem, tex, barExit uint64
}

// L1Listener observes L1 activity; CCWS uses it for locality scoring.
type L1Listener interface {
	// OnL1Access is called for every line probe with its warp slot and
	// outcome.
	OnL1Access(warpSlot int, line cache.Addr, result cache.AccessResult)
	// OnL1Evict is called when a fill evicts a victim line.
	OnL1Evict(line cache.Addr)
}

// SM is one streaming multiprocessor. Not safe for concurrent use.
type SM struct {
	cfg   config.GPU
	index int

	warps  []warpCtx
	blocks []blockCtx
	// freeWarpSlots holds unused warp slot indices (LIFO).
	freeWarpSlots []int

	l1 *cache.Cache
	// l1Waiters lists, per L1 MSHR slot, the warp slots awaiting that
	// slot's fill. A list is emptied in place when its fill arrives, so its
	// capacity serves the slot's next miss and the append stays off the
	// heap in steady state.
	l1Waiters [][]int

	lsu []lsuEntry
	// tex is the texture unit's request queue. It is much deeper than the
	// LSU, and warps stalled behind it are classified as waiting rather
	// than Xmem — texture back-pressure is invisible to the LD/ST pipeline
	// (the leuko-1 effect of Section V-B).
	tex []lsuEntry
	// outbox holds at most one miss awaiting interconnect acceptance;
	// outboxFull gates it (a value field, not a pointer, so posting a miss
	// every few cycles does not allocate).
	outbox     MemRequest
	outboxFull bool
	// wakeQueue schedules warp wake-ups (load returns, L1 hit latency);
	// gapQueue schedules dependency-gap expiries so the bitset scheduler can
	// keep masks.gap current without re-checking readyAt per warp per cycle.
	// Both are calendar queues: PopReady is O(delivered), and the wake/gap
	// handlers are commutative so within-bucket insertion order is safe.
	wakeQueue *events.Calendar[int]
	gapQueue  *events.Calendar[int]
	// wakeFn/gapFn are the PopReady callbacks, allocated once in New so the
	// per-cycle pops stay off the heap.
	wakeFn func(int)
	gapFn  func(int)

	// masks is the bitset scheduler state; masksDirty forces a recount from
	// the per-slot state before the next issue — set by every mutation the
	// incremental updates do not model (block launch, pausing).
	masks      schedMasks
	masksDirty bool
	// memIssueMask holds the warp slots allowed to issue to the memory
	// pipeline; a policy (CCWS) clears bits to throttle warps.
	memIssueMask uint64
	// refIssue, when set, replaces issueFast. Only tests set it, to run the
	// linear-scan reference the bitset path is checked against.
	refIssue func(now, smPeriod clock.Time)

	// targetBlocks is the concurrency ceiling set by the running policy;
	// resident unpaused blocks never exceed it.
	targetBlocks int

	// rrALU rotates issue priority for fairness.
	rrALU int

	listener L1Listener

	// probe is the telemetry bus (nil = disabled, free); nowPS tracks the
	// current Step time so events emitted outside Step (block launches from
	// the dispatcher, pausing from the policy) carry a timestamp.
	probe *telemetry.Bus
	nowPS int64

	snap  Snapshot
	stats Stats

	residentBlocks int
	activeBlocks   int
	liveWarps      int
}

// wakeCalendarBuckets sizes the wheel: the common wake horizon (L1 hit
// latency, DRAM round trips, dependency gaps) fits a few hundred SM cycles;
// rarer far-future wakes spill to the calendar's overflow queue.
const wakeCalendarBuckets = 256

// New builds an SM with the given index. It panics when the configuration
// has more warp slots than the scheduler masks hold.
func New(cfg config.GPU, index int) *SM {
	if cfg.MaxWarpsPerSM > config.MaxWarpsPerSMLimit {
		panic(fmt.Sprintf("sm: %d warp slots exceed the %d-warp limit",
			cfg.MaxWarpsPerSM, config.MaxWarpsPerSMLimit))
	}
	s := &SM{
		cfg:          cfg,
		index:        index,
		warps:        make([]warpCtx, cfg.MaxWarpsPerSM),
		blocks:       make([]blockCtx, cfg.MaxBlocksPerSM),
		l1:           cache.MustNew(cfg.L1),
		l1Waiters:    make([][]int, cfg.L1.MSHRs),
		lsu:          make([]lsuEntry, 0, cfg.LSUQueueDepth),
		targetBlocks: cfg.MaxBlocksPerSM,
		wakeQueue:    events.NewCalendar[int](cfg.SMClockPS, wakeCalendarBuckets),
		gapQueue:     events.NewCalendar[int](cfg.SMClockPS, wakeCalendarBuckets),
		masksDirty:   true,
		memIssueMask: ^uint64(0),
	}
	for i := cfg.MaxWarpsPerSM - 1; i >= 0; i-- {
		s.freeWarpSlots = append(s.freeWarpSlots, i)
	}
	s.wakeFn = s.wakeWarp
	s.gapFn = s.expireGap
	return s
}

// wakeWarp is the wakeQueue PopReady handler: one outstanding line (or the
// dependency stand-in pushed by an L1 hit) arrived for the warp.
func (s *SM) wakeWarp(ws int) {
	w := &s.warps[ws]
	if w.valid && w.pendingLines > 0 {
		w.pendingLines--
		if w.pendingLines == 0 && !s.masksDirty {
			s.masks.pending &^= 1 << uint(ws)
		}
	}
}

// expireGap is the gapQueue PopReady handler: a dependency gap elapsed. The
// readyAt re-check drops entries made stale by slot reuse or a barrier
// release rewriting readyAt (a newer entry exists in that case).
func (s *SM) expireGap(ws int) {
	if s.masksDirty {
		return
	}
	w := &s.warps[ws]
	if w.valid && !w.finished && clock.Time(s.nowPS) >= w.readyAt {
		s.masks.gap &^= 1 << uint(ws)
	}
}

// Index returns the SM's position in the GPU.
func (s *SM) Index() int { return s.index }

// L1 exposes the data cache (read-mostly: statistics, geometry).
func (s *SM) L1() *cache.Cache { return s.l1 }

// Stats returns accumulated statistics.
func (s *SM) Stats() Stats { return s.stats }

// Snapshot returns the warp-state census of the last completed cycle.
func (s *SM) Snapshot() Snapshot { return s.snap }

// SetMemIssueMask sets the warp slots allowed to issue to the memory
// pipeline (bit i for slot i; all ones lifts every veto). A vetoed ready
// warp counts as waiting, not as Xmem back-pressure.
func (s *SM) SetMemIssueMask(m uint64) { s.memIssueMask = m }

// SetL1Listener installs (or clears, with nil) an L1 activity observer.
func (s *SM) SetL1Listener(l L1Listener) { s.listener = l }

// SetProbe wires the SM to a telemetry bus. The SM emits warp-issue
// events, the per-cycle stall census, block launch/finish and CTA
// pause/unpause transitions. A nil bus detaches the probe.
func (s *SM) SetProbe(b *telemetry.Bus) { s.probe = b }

// ResidentBlocks returns the number of blocks currently occupying slots.
func (s *SM) ResidentBlocks() int { return s.residentBlocks }

// LiveWarps returns resident unfinished warps (paused included).
func (s *SM) LiveWarps() int { return s.liveWarps }

// TargetBlocks returns the current concurrency ceiling.
func (s *SM) TargetBlocks() int { return s.targetBlocks }

// SetTargetBlocks changes the concurrency ceiling, pausing or unpausing
// resident blocks as needed. The ceiling is clamped to [1, MaxBlocksPerSM].
func (s *SM) SetTargetBlocks(n int) {
	if n < 1 {
		n = 1
	}
	if n > s.cfg.MaxBlocksPerSM {
		n = s.cfg.MaxBlocksPerSM
	}
	s.targetBlocks = n
	s.rebalancePausing()
}

// rebalancePausing pauses the youngest blocks above the ceiling and unpauses
// the oldest paused blocks below it.
func (s *SM) rebalancePausing() {
	s.masksDirty = true
	// Pause from the highest slot downwards while above target.
	for i := len(s.blocks) - 1; i >= 0 && s.activeBlocks > s.targetBlocks; i-- {
		b := &s.blocks[i]
		if b.valid && !b.paused {
			b.paused = true
			s.activeBlocks--
			s.probe.Emit(s.nowPS, telemetry.KindCTAPause, int16(s.index),
				int64(i), int64(b.globalID))
		}
	}
	// Unpause from the lowest slot upwards while below target.
	for i := 0; i < len(s.blocks) && s.activeBlocks < s.targetBlocks; i++ {
		b := &s.blocks[i]
		if b.valid && b.paused {
			b.paused = false
			s.activeBlocks++
			s.probe.Emit(s.nowPS, telemetry.KindCTAUnpause, int16(s.index),
				int64(i), int64(b.globalID))
		}
	}
}

// WantsBlock reports whether the SM can accept another thread block of
// wcta warps: a free block slot, enough warp slots, and headroom under the
// concurrency ceiling.
func (s *SM) WantsBlock(wcta int) bool {
	if s.activeBlocks >= s.targetBlocks || s.residentBlocks >= s.cfg.MaxBlocksPerSM {
		return false
	}
	return len(s.freeWarpSlots) >= wcta
}

// LaunchBlock installs a thread block of wcta warps running prof, with
// grid-global id globalID. It panics when WantsBlock would be false —
// callers own admission control.
func (s *SM) LaunchBlock(prof *warp.Profile, globalID, wcta int) {
	if !s.WantsBlock(wcta) {
		panic(fmt.Sprintf("sm %d: LaunchBlock without capacity", s.index))
	}
	slot := -1
	for i := range s.blocks {
		if !s.blocks[i].valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		panic(fmt.Sprintf("sm %d: no free block slot despite WantsBlock", s.index))
	}
	b := &s.blocks[slot]
	*b = blockCtx{valid: true, globalID: globalID, warps: b.warps[:0], liveWarps: wcta}
	for w := 0; w < wcta; w++ {
		ws := s.freeWarpSlots[len(s.freeWarpSlots)-1]
		s.freeWarpSlots = s.freeWarpSlots[:len(s.freeWarpSlots)-1]
		wc := &s.warps[ws]
		*wc = warpCtx{block: slot, valid: true}
		wc.stream.Init(prof, globalID*wcta+w)
		b.warps = append(b.warps, ws)
	}
	s.residentBlocks++
	s.activeBlocks++
	s.liveWarps += wcta
	s.masksDirty = true
	s.stats.BlocksLaunched++
	s.probe.Emit(s.nowPS, telemetry.KindBlockLaunch, int16(s.index),
		int64(globalID), int64(slot)<<16|int64(wcta))
	// A newly launched block may immediately exceed the ceiling if the
	// policy lowered it since admission was checked.
	if s.activeBlocks > s.targetBlocks {
		s.rebalancePausing()
	}
}

// DeliverLine completes an outstanding miss for the given line: the L1 is
// filled and every waiting warp is scheduled to wake at time at.
func (s *SM) DeliverLine(line cache.Addr, at clock.Time) {
	s.l1.Fill(line)
	slot := s.l1.Slot()
	if s.listener != nil {
		if victim, ok := s.l1.LastVictim(); ok {
			s.listener.OnL1Evict(victim)
		}
	}
	for _, ws := range s.l1Waiters[slot] {
		s.wakeQueue.Push(int64(at), ws)
	}
	s.l1Waiters[slot] = s.l1Waiters[slot][:0]
}

// addWaiter records warp slot ws waiting on the L1 miss the last Access
// allocated or merged into.
func (s *SM) addWaiter(ws int) {
	slot := s.l1.Slot()
	s.l1Waiters[slot] = append(s.l1Waiters[slot], ws)
}

// L1Waiters returns the number of warp entries waiting on L1 fills; zero
// whenever the SM's L1 has no outstanding miss.
func (s *SM) L1Waiters() int {
	n := 0
	for _, w := range s.l1Waiters {
		n += len(w)
	}
	return n
}

// OutboxFull reports whether a miss is stuck waiting for the interconnect.
func (s *SM) OutboxFull() bool { return s.outboxFull }

// TakeOutbox hands the pending miss to the interconnect layer; ok is false
// when there is none.
func (s *SM) TakeOutbox() (MemRequest, bool) {
	if !s.outboxFull {
		return MemRequest{}, false
	}
	s.outboxFull = false
	return s.outbox, true
}

// TexQueueDepth is the texture unit's request-queue capacity; deep enough
// that texture streams rarely exert visible back-pressure.
const TexQueueDepth = 32

// Idle reports whether the SM holds no work at all. The gapQueue term is
// provably redundant — a gap entry always belongs to an unfinished resident
// warp, and pops before that warp can fetch its EXIT — but is kept so Idle
// never reports true with any queue populated.
func (s *SM) Idle() bool {
	return s.residentBlocks == 0 && len(s.lsu) == 0 && len(s.tex) == 0 &&
		!s.outboxFull && s.wakeQueue.Len() == 0 && s.gapQueue.Len() == 0
}

// Step advances the SM by one cycle ending at time now (the current SM-domain
// cycle boundary). smPeriod is the current SM clock period, used to convert
// latencies expressed in SM cycles into absolute times.
//
//eqlint:cycle-owner
func (s *SM) Step(now clock.Time, smPeriod clock.Time) {
	s.nowPS = int64(now)
	s.stats.Cycles++
	if s.Idle() {
		s.stepIdle(now)
		return
	}
	if s.residentBlocks > 0 {
		s.stats.ActiveCycles++
	}

	// 1. Wake warps whose data or dependency gap arrived.
	s.wakeQueue.PopReady(int64(now), s.wakeFn)
	s.gapQueue.PopReady(int64(now), s.gapFn)

	// 2. Drain the LSU head into the L1 (one line access per cycle); the
	// texture queue shares the L1 port on cycles the LSU leaves it idle.
	if !s.drainQueue(&s.lsu, now, smPeriod) {
		s.drainQueue(&s.tex, now, smPeriod)
	}

	// 3. Issue: classify warps, pick one ALU, one MEM and one TEX candidate.
	if s.refIssue != nil {
		s.refIssue(now, smPeriod)
	} else {
		s.issueFast(now, smPeriod)
	}

	if invariant.Enabled {
		s.verifyInvariants()
	}
}

// stepIdle is Step for an SM that holds no work: the census is all zeros and
// nothing can change, so the calendar pops, queue drains and issue stage are
// skipped. Skipping them is exact. A warp reaches EXIT only once its
// pendingLines are zero, so an SM without a resident block has no
// outstanding L1 miss and nothing can push into its calendars before the
// next non-idle Step, which pops them first. The calendars' bases are then
// pinned at that Step rather than at cycle 1, which renumbers buckets but,
// by Calendar's contract, does not change delivery.
func (s *SM) stepIdle(now clock.Time) {
	s.snap = Snapshot{}
	s.probe.Emit(int64(now), telemetry.KindStallCensus, int16(s.index), 0, 0)
	if invariant.Enabled {
		invariant.Checkf(s.l1.OutstandingMisses() == 0 && s.L1Waiters() == 0,
			"sm %d idle with L1 misses in flight: %d outstanding, %d waiters",
			s.index, s.l1.OutstandingMisses(), s.L1Waiters())
		s.verifyInvariants()
	}
}

// recomputeMasks rebuilds every scheduler mask from the authoritative
// per-slot state, at census time `now`. Warps whose readyAt lies in the
// future already have a gapQueue entry (pushed when readyAt was written), so
// the rebuilt gap bits will be cleared on schedule.
func (s *SM) recomputeMasks(now clock.Time) {
	var m schedMasks
	for i := range s.warps {
		w := &s.warps[i]
		if !w.valid || w.finished {
			continue
		}
		bit := uint64(1) << uint(i)
		m.valid |= bit
		if s.blocks[w.block].paused {
			m.paused |= bit
		}
		if w.atBarrier {
			m.barrier |= bit
		}
		if w.pendingLines > 0 {
			m.pending |= bit
		}
		if now < w.readyAt {
			m.gap |= bit
		}
		if w.hasCur {
			m.classify(bit, w.cur.Kind)
		}
	}
	s.masks = m
	s.masksDirty = false
}

// classify adds bit to the head-class set of an instruction of kind k.
func (m *schedMasks) classify(bit uint64, k warp.Kind) {
	switch k {
	case warp.ALU, warp.SFU:
		m.alu |= bit
	case warp.MEM:
		m.mem |= bit
	case warp.TEX:
		m.tex |= bit
	default:
		m.barExit |= bit
	}
}

// firstFromRR returns the lowest-index set bit of mask at or after the
// round-robin origin rrALU, wrapping; -1 when mask is empty. This reproduces
// the linear scan's "first candidate in scan order" selection.
func (s *SM) firstFromRR(mask uint64) int {
	if mask == 0 {
		return -1
	}
	if hi := mask >> uint(s.rrALU) << uint(s.rrALU); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(mask)
}

// rotationBefore returns the warp slots a scan starting at the round-robin
// origin rrALU visits before slot h.
func (s *SM) rotationBefore(h int) uint64 {
	below := uint64(1)<<uint(h) - 1
	fromRR := ^uint64(0) << uint(s.rrALU)
	if h >= s.rrALU {
		return below & fromRR
	}
	return below | fromRR
}

// fetchHeads pulls the next instruction for every warp in toFetch and
// classifies it. The order does not matter: each stream is private to its
// warp.
func (s *SM) fetchHeads(toFetch uint64) {
	for m := toFetch; m != 0; m &= m - 1 {
		ws := bits.TrailingZeros64(m)
		w := &s.warps[ws]
		w.cur = w.stream.Next()
		w.hasCur = true
		s.masks.classify(1<<uint(ws), w.cur.Kind)
	}
}

// issueFast is the issue stage: census by popcount, candidate selection by
// find-first-set in round-robin order from rrALU. A ready warp whose head is
// a barrier or an exit splits the rotation there: the slots before it are
// recorded as the rotation saw them, its arrival or exit is applied (which
// may release the barrier, complete the block and unpause another), the
// masks are rebuilt, and the slots after it are read from the new state.
// That is the order in which a per-warp scan meets those mutations. Two
// facts let the census and the selection run once, over the union: applying
// a head never makes a ready warp unready or changes its fetched head (a
// release touches only warps at the barrier, a completed block holds only
// finished warps, completion only unpauses), and each stream is private to
// its warp, so every ready head can be fetched up front.
func (s *SM) issueFast(now clock.Time, smPeriod clock.Time) {
	if s.masksDirty {
		s.recomputeMasks(now)
	}
	m := &s.masks
	// active, others and ready are the slots the rotation counted as
	// active, at a barrier and ready when it reached them.
	var active, others, ready uint64
	left := ^uint64(0) // slots the rotation has not reached yet
	for {
		a := (m.valid &^ m.paused) & left
		r := a &^ (m.barrier | m.pending | m.gap)
		if toFetch := r &^ (m.alu | m.mem | m.tex | m.barExit); toFetch != 0 {
			s.fetchHeads(toFetch)
		}
		heads := r & m.barExit
		if heads == 0 {
			active, others, ready = active|a, others|a&m.barrier, ready|r
			break
		}
		head := s.firstFromRR(heads)
		before := s.rotationBefore(head)
		bit := uint64(1) << uint(head)
		active |= a & before
		others |= a & before & m.barrier
		ready |= r & before
		if s.warps[head].cur.Kind == warp.BAR {
			// The arriving warp counts as active and at the barrier.
			active |= bit
			others |= bit
			s.arriveBarrier(head, now)
		} else {
			s.finishWarp(head)
		}
		s.recomputeMasks(now)
		left &^= before | bit
	}

	snap := Snapshot{Active: bits.OnesCount64(active), Others: bits.OnesCount64(others)}
	snap.Waiting = snap.Active - snap.Others - bits.OnesCount64(ready)

	readyALUm := ready & m.alu
	readyMEMm := ready & m.mem & s.memIssueMask
	readyTEXm := ready & m.tex
	// A vetoed memory warp counts as waiting, not as Xmem.
	snap.Waiting += bits.OnesCount64(ready&m.mem) - bits.OnesCount64(readyMEMm)
	readyALU := bits.OnesCount64(readyALUm)
	readyMEM := bits.OnesCount64(readyMEMm)
	bestALU := s.firstFromRR(readyALUm)
	bestMEM := -1
	if len(s.lsu) < s.cfg.LSUQueueDepth {
		bestMEM = s.firstFromRR(readyMEMm)
	}
	bestTEX := -1
	ntex := bits.OnesCount64(readyTEXm)
	if len(s.tex) < TexQueueDepth && ntex > 0 {
		bestTEX = s.firstFromRR(readyTEXm)
		snap.Waiting += ntex - 1
	} else {
		// Texture back-pressure (or no candidates): unissued ready texture
		// warps are indistinguishable from waiting ones.
		snap.Waiting += ntex
	}

	s.finishIssue(now, smPeriod, snap, bestALU, bestMEM, bestTEX, readyALU, readyMEM)
}

// verifyInvariants asserts the SM conservation laws at a cycle boundary.
// Only compiled in under the eqdebug build tag; the cheap O(1) checks run
// every cycle and the full recount every recountInterval cycles.
func (s *SM) verifyInvariants() {
	// Census conservation: every active warp is in exactly one bucket.
	snap := s.snap
	invariant.Checkf(snap.Active == snap.Waiting+snap.Issued+snap.XALU+snap.XMEM+snap.Others,
		"sm %d warp census leak: active=%d waiting=%d issued=%d xalu=%d xmem=%d others=%d",
		s.index, snap.Active, snap.Waiting, snap.Issued, snap.XALU, snap.XMEM, snap.Others)

	// Block accounting: resident blocks within hardware bounds, and the
	// paused count is exactly the overshoot past the policy's ceiling
	// (rebalancePausing's three-way contract with the dispatcher).
	invariant.Checkf(0 <= s.activeBlocks && s.activeBlocks <= s.residentBlocks &&
		s.residentBlocks <= s.cfg.MaxBlocksPerSM,
		"sm %d block counts out of range: active=%d resident=%d max=%d",
		s.index, s.activeBlocks, s.residentBlocks, s.cfg.MaxBlocksPerSM)
	wantPaused := s.residentBlocks - s.targetBlocks
	if wantPaused < 0 {
		wantPaused = 0
	}
	invariant.Checkf(s.residentBlocks-s.activeBlocks == wantPaused,
		"sm %d pausing drift: paused=%d, want max(0, resident=%d - target=%d)",
		s.index, s.residentBlocks-s.activeBlocks, s.residentBlocks, s.targetBlocks)

	if s.stats.Cycles%recountInterval == 0 {
		s.recountInvariants()
	}
}

// recountInterval spaces the O(warps+blocks) ground-truth recount; a power
// of two well below the epoch length so drift is caught within an epoch.
const recountInterval = 128

// recountInvariants recomputes the cached census counters from the
// authoritative per-slot state and checks cache-statistics conservation.
func (s *SM) recountInvariants() {
	resident, active, live := 0, 0, 0
	for i := range s.blocks {
		b := &s.blocks[i]
		if !b.valid {
			continue
		}
		resident++
		if !b.paused {
			active++
		}
		live += b.liveWarps
		invariant.Checkf(b.barWaiting <= b.liveWarps,
			"sm %d block %d: %d warps at barrier but only %d live",
			s.index, i, b.barWaiting, b.liveWarps)
	}
	invariant.Checkf(resident == s.residentBlocks,
		"sm %d resident-block drift: cached %d, recount %d", s.index, s.residentBlocks, resident)
	invariant.Checkf(active == s.activeBlocks,
		"sm %d active-block drift: cached %d, recount %d", s.index, s.activeBlocks, active)
	invariant.Checkf(live == s.liveWarps,
		"sm %d live-warp drift: cached %d, recount %d", s.index, s.liveWarps, live)

	// Warp-slot conservation: every slot is either free or holds a valid
	// context.
	validWarps := 0
	for i := range s.warps {
		if s.warps[i].valid {
			validWarps++
		}
	}
	invariant.Checkf(validWarps+len(s.freeWarpSlots) == s.cfg.MaxWarpsPerSM,
		"sm %d warp-slot leak: %d valid + %d free != %d slots",
		s.index, validWarps, len(s.freeWarpSlots), s.cfg.MaxWarpsPerSM)

	// Scheduler mask conservation: clean bitsets must equal a recount from
	// the authoritative slot state. The gap set is only checked for
	// containment — its exact value depends on the current cycle time, and
	// stale bits are re-validated against readyAt when they pop. The cached
	// masks are restored, so checking never changes what the SM does.
	if !s.masksDirty {
		cached := s.masks
		s.recomputeMasks(clock.Time(s.nowPS))
		recount := s.masks
		s.masks = cached
		invariant.Checkf(cached.gap&^recount.valid == 0,
			"sm %d gap mask escapes valid warps: gap=%#x valid=%#x", s.index, cached.gap, recount.valid)
		cached.gap, recount.gap = 0, 0
		invariant.Checkf(cached == recount,
			"sm %d scheduler mask drift: cached %+v, recount %+v", s.index, cached, recount)
	}

	// L1 accounting: every demand access resolves to exactly one outcome.
	// Rejected probes are excluded from Accesses by design — the warp
	// retries, so counting them would skew hit rates.
	cs := s.l1.Stats()
	invariant.Checkf(cs.Hits+cs.Misses+cs.Merged == cs.Accesses,
		"sm %d L1 stats leak: hits=%d misses=%d merged=%d accesses=%d",
		s.index, cs.Hits, cs.Misses, cs.Merged, cs.Accesses)

	// Miss tracking: a Miss adds its first waiter in the same call that
	// allocates the MSHR and DeliverLine empties the list in the call that
	// releases it, so exactly the busy slots have waiters.
	lists := 0
	for _, w := range s.l1Waiters {
		if len(w) > 0 {
			lists++
		}
	}
	invariant.Checkf(lists == s.l1.OutstandingMisses(),
		"sm %d L1 waiter leak: %d non-empty waiter lists, %d outstanding misses",
		s.index, lists, s.l1.OutstandingMisses())
}

// drainQueue advances one memory queue by one line access and reports
// whether it consumed the L1 port this cycle.
func (s *SM) drainQueue(q *[]lsuEntry, now clock.Time, smPeriod clock.Time) bool {
	if len(*q) == 0 || s.outboxFull {
		return false
	}
	e := &(*q)[0]
	line := s.l1.LineAddr(warp.ExtraAddr(e.base, e.nextLine, s.cfg.L1.LineBytes))
	res := s.l1.Access(line)
	if s.listener != nil {
		s.listener.OnL1Access(e.warp, line, res)
	}
	switch res {
	case cache.Reject:
		// MSHRs exhausted: head blocks, back-pressure builds.
		return true
	case cache.Hit:
		s.stats.L1LineAccesses++
		s.wakeQueue.Push(int64(now+clock.Time(s.cfg.L1HitLatency)*smPeriod), e.warp)
	case cache.Miss:
		s.stats.L1LineAccesses++
		s.addWaiter(e.warp)
		s.outbox = MemRequest{SM: s.index, Line: line}
		s.outboxFull = true
	case cache.MergedMiss:
		s.stats.L1LineAccesses++
		s.addWaiter(e.warp)
	}
	e.nextLine++
	e.linesLeft--
	if e.linesLeft == 0 {
		copy(*q, (*q)[1:])
		*q = (*q)[:len(*q)-1]
	}
	return true
}

// finishIssue commits the selected candidates, updates the round-robin
// origin, completes the census snapshot and emits telemetry — the issue tail
// shared with the linear-scan reference. Mask maintenance is skipped while
// masksDirty (the next issue recounts anyway), but gapQueue entries are
// pushed at every readyAt write regardless, so a recount never needs to
// reconstruct the queue.
func (s *SM) finishIssue(now clock.Time, smPeriod clock.Time, snap Snapshot,
	bestALU, bestMEM, bestTEX, readyALU, readyMEM int) {
	issued := 0
	if bestALU >= 0 {
		w := &s.warps[bestALU]
		pipe := telemetry.PipeALU
		if w.cur.Kind == warp.SFU {
			s.stats.IssuedSFU++
			pipe = telemetry.PipeSFU
		} else {
			s.stats.IssuedALU++
		}
		s.probe.Emit(int64(now), telemetry.KindWarpIssue, int16(s.index), int64(bestALU), pipe)
		w.readyAt = now + clock.Time(w.cur.Gap)*smPeriod
		w.hasCur = false
		if w.readyAt > now {
			s.gapQueue.Push(int64(w.readyAt), bestALU)
			if !s.masksDirty {
				s.masks.gap |= 1 << uint(bestALU)
			}
		}
		if !s.masksDirty {
			s.masks.alu &^= 1 << uint(bestALU)
		}
		issued++
		readyALU--
		s.rrALU = (bestALU + 1) % len(s.warps)
	}
	if bestMEM >= 0 {
		w := &s.warps[bestMEM]
		s.lsu = append(s.lsu, lsuEntry{
			warp:      bestMEM,
			base:      w.cur.Addr,
			linesLeft: 1 + int(w.cur.ExtraLines),
		})
		w.pendingLines = 1 + int(w.cur.ExtraLines)
		s.stats.IssuedMEM++
		s.probe.Emit(int64(now), telemetry.KindWarpIssue, int16(s.index),
			int64(bestMEM), telemetry.PipeMEM)
		w.hasCur = false
		if !s.masksDirty {
			s.masks.mem &^= 1 << uint(bestMEM)
			s.masks.pending |= 1 << uint(bestMEM)
		}
		issued++
		readyMEM--
	}
	if bestTEX >= 0 {
		w := &s.warps[bestTEX]
		s.tex = append(s.tex, lsuEntry{
			warp:      bestTEX,
			base:      w.cur.Addr,
			linesLeft: 1 + int(w.cur.ExtraLines),
		})
		w.pendingLines = 1 + int(w.cur.ExtraLines)
		s.stats.IssuedTEX++
		s.probe.Emit(int64(now), telemetry.KindWarpIssue, int16(s.index),
			int64(bestTEX), telemetry.PipeTEX)
		w.hasCur = false
		if !s.masksDirty {
			s.masks.tex &^= 1 << uint(bestTEX)
			s.masks.pending |= 1 << uint(bestTEX)
		}
		issued++
	}

	snap.Issued = issued
	snap.XALU = readyALU
	snap.XMEM = readyMEM
	s.snap = snap
	if s.probe.Enabled(telemetry.KindStallCensus) {
		packed := int64(snap.Active)<<24 | int64(snap.Waiting)<<16 |
			int64(snap.XALU)<<8 | int64(snap.XMEM)
		s.probe.Emit(int64(now), telemetry.KindStallCensus, int16(s.index),
			packed, int64(issued))
	}
}

func (s *SM) arriveBarrier(ws int, now clock.Time) {
	w := &s.warps[ws]
	w.atBarrier = true
	b := &s.blocks[w.block]
	b.barWaiting++
	if b.barWaiting < b.liveWarps {
		return
	}
	// Everyone arrived: release the whole block next cycle.
	for _, other := range b.warps {
		ow := &s.warps[other]
		if ow.valid && !ow.finished && ow.atBarrier {
			ow.atBarrier = false
			ow.hasCur = false
			ow.readyAt = now + 1
			s.gapQueue.Push(int64(now+1), other)
		}
	}
	b.barWaiting = 0
	s.stats.BarrierReleases++
}

func (s *SM) finishWarp(ws int) {
	w := &s.warps[ws]
	w.finished = true
	s.liveWarps--
	b := &s.blocks[w.block]
	b.liveWarps--
	if b.liveWarps > 0 {
		return
	}
	// Block complete: free its warp slots and the block slot.
	for _, other := range b.warps {
		s.warps[other] = warpCtx{}
		s.freeWarpSlots = append(s.freeWarpSlots, other)
	}
	s.probe.Emit(s.nowPS, telemetry.KindBlockFinish, int16(s.index),
		int64(b.globalID), int64(w.block))
	wasPaused := b.paused
	*b = blockCtx{warps: b.warps[:0]}
	s.residentBlocks--
	if !wasPaused {
		s.activeBlocks--
	}
	s.stats.BlocksFinished++
	// A finished block hands its slot to a paused one (Section IV-B): the
	// reduced concurrency target is maintained without a new GWDE request.
	s.rebalancePausing()
}

// Reset clears all execution state for a new kernel invocation. The L1 is
// flushed (no cross-kernel coherence) and statistics are preserved unless
// resetStats is true.
func (s *SM) Reset(resetStats bool) {
	for i := range s.warps {
		s.warps[i] = warpCtx{}
	}
	for i := range s.blocks {
		// Keep each block slot's warp-list capacity: dropping it here made
		// the first launches of every invocation re-grow 120 slices per run.
		s.blocks[i] = blockCtx{warps: s.blocks[i].warps[:0]}
	}
	s.freeWarpSlots = s.freeWarpSlots[:0]
	for i := s.cfg.MaxWarpsPerSM - 1; i >= 0; i-- {
		s.freeWarpSlots = append(s.freeWarpSlots, i)
	}
	s.l1.Flush()
	for i := range s.l1Waiters {
		s.l1Waiters[i] = s.l1Waiters[i][:0]
	}
	s.lsu = s.lsu[:0]
	s.tex = s.tex[:0]
	s.outboxFull = false
	s.wakeQueue.Reset()
	s.gapQueue.Reset()
	s.masksDirty = true
	s.targetBlocks = s.cfg.MaxBlocksPerSM
	s.rrALU = 0
	s.residentBlocks, s.activeBlocks, s.liveWarps = 0, 0, 0
	s.snap = Snapshot{}
	if resetStats {
		s.stats = Stats{}
	}
}

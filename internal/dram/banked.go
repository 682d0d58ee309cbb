package dram

import (
	"fmt"

	"equalizer/internal/cache"
	"equalizer/internal/telemetry"
)

// BankedConfig parameterises the banked FR-FCFS controller, a closer model
// of GDDR5 devices than the flat bandwidth gate of Controller: requests are
// distributed over independent banks, each with an open row buffer, and a
// scheduler that prefers row-buffer hits (first-ready, first-come
// first-served). Row hits stream at the device's burst rate; row misses pay
// a precharge+activate penalty.
type BankedConfig struct {
	// Banks is the number of independent banks (16 on GDDR5).
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// QueueDepth bounds pending requests across all banks.
	QueueDepth int
	// RowHitInterval is the data-bus occupancy of a row-buffer hit, in
	// memory cycles per 128-byte request (the burst rate).
	RowHitInterval int
	// RowMissInterval adds the precharge+activate penalty.
	RowMissInterval int
	// Latency is the access latency added to every request.
	Latency int
}

// Validate reports a descriptive error for unusable parameters.
func (c BankedConfig) Validate() error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("dram: Banks must be positive, got %d", c.Banks)
	case c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0:
		return fmt.Errorf("dram: RowBytes must be a positive power of two, got %d", c.RowBytes)
	case c.QueueDepth <= 0:
		return fmt.Errorf("dram: QueueDepth must be positive, got %d", c.QueueDepth)
	case c.RowHitInterval <= 0:
		return fmt.Errorf("dram: RowHitInterval must be positive, got %d", c.RowHitInterval)
	case c.RowMissInterval < c.RowHitInterval:
		return fmt.Errorf("dram: RowMissInterval (%d) must be >= RowHitInterval (%d)",
			c.RowMissInterval, c.RowHitInterval)
	case c.Latency < 0:
		return fmt.Errorf("dram: Latency must be non-negative, got %d", c.Latency)
	}
	return nil
}

// DefaultBanked returns a GDDR5-flavoured configuration whose row-hit burst
// rate matches the flat model's nominal bandwidth (1 line/cycle), with a 4x
// penalty for row misses.
func DefaultBanked() BankedConfig {
	return BankedConfig{
		Banks:           16,
		RowBytes:        2048,
		QueueDepth:      64,
		RowHitInterval:  1,
		RowMissInterval: 4,
		Latency:         160,
	}
}

// BankedStats extends Stats with row-buffer accounting.
type BankedStats struct {
	Stats
	RowHits   uint64
	RowMisses uint64
}

// RowHitRate returns the fraction of serviced requests that hit the open
// row, or zero when nothing was serviced.
func (s BankedStats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Banked is the banked FR-FCFS memory controller. It satisfies the same
// stepping contract as Controller and is selected by the GPU model when
// config.GPU.DRAMBanks > 0. Not safe for concurrent use.
type Banked struct {
	cfg BankedConfig

	// queues[b] holds pending requests of bank b, in arrival order.
	queues  [][]cache.Addr
	pending int
	// openRow[b] is bank b's open row id; -1 when closed.
	openRow []int64

	// nextStart gates the shared data bus.
	nextStart int64
	// rr rotates bank priority for fairness.
	rr int

	inService []inflight
	completed []cache.Addr
	stats     BankedStats

	probe    *telemetry.Bus
	probeNow func() int64
}

// NewBanked builds a banked controller.
func NewBanked(cfg BankedConfig) (*Banked, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Banked{
		cfg:     cfg,
		queues:  make([][]cache.Addr, cfg.Banks),
		openRow: make([]int64, cfg.Banks),
	}
	for i := range b.openRow {
		b.openRow[i] = -1
	}
	return b, nil
}

// MustNewBanked is NewBanked but panics on error.
func MustNewBanked(cfg BankedConfig) *Banked {
	b, err := NewBanked(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// SetProbe wires the controller to a telemetry bus: every serviced request
// emits KindDRAMRowHit or KindDRAMRowMiss (a bank conflict paying the
// precharge+activate penalty) with the bank as source, and rejected
// Enqueue attempts emit KindDRAMReject. now supplies the owner's current
// simulation time in picoseconds. A nil bus detaches the probe.
func (b *Banked) SetProbe(bus *telemetry.Bus, now func() int64) {
	b.probe, b.probeNow = bus, now
}

// bankOf maps a line address to its bank: consecutive rows interleave
// across banks so streaming traffic exercises bank-level parallelism.
func (b *Banked) bankOf(line cache.Addr) int {
	return int((uint64(line) / uint64(b.cfg.RowBytes)) % uint64(b.cfg.Banks))
}

// rowOf returns the global row id of a line.
func (b *Banked) rowOf(line cache.Addr) int64 {
	return int64(uint64(line) / uint64(b.cfg.RowBytes))
}

// CanAccept reports whether the controller has queue room.
func (b *Banked) CanAccept() bool { return b.pending < b.cfg.QueueDepth }

// Enqueue adds a line request, returning false when the queue is full.
func (b *Banked) Enqueue(line cache.Addr) bool {
	if !b.CanAccept() {
		b.stats.Rejected++
		if b.probe.Enabled(telemetry.KindDRAMReject) {
			b.probe.Emit(b.probeNow(), telemetry.KindDRAMReject, -1, int64(line), 0)
		}
		return false
	}
	bank := b.bankOf(line)
	b.queues[bank] = append(b.queues[bank], line)
	b.pending++
	b.stats.Enqueued++
	return true
}

// QueueLen returns pending (not yet in-service) requests.
func (b *Banked) QueueLen() int { return b.pending }

// Pending returns queued plus in-service requests.
func (b *Banked) Pending() int { return b.pending + len(b.inService) }

// Drained reports whether the controller holds no work.
func (b *Banked) Drained() bool { return b.pending == 0 && len(b.inService) == 0 }

// Stats returns a copy of the accumulated statistics.
func (b *Banked) Stats() Stats { return b.stats.Stats }

// BankedStats returns the row-buffer statistics.
func (b *Banked) BankedStats() BankedStats { return b.stats }

// ResetStats clears statistics without disturbing queue contents.
func (b *Banked) ResetStats() { b.stats = BankedStats{} }

// Step advances the controller to memory cycle now and returns completed
// lines. FR-FCFS: the scheduler scans banks round-robin and, within the
// chosen bank, services the oldest row-buffer hit if one exists, else the
// oldest request (opening its row).
//
//eqlint:cycle-owner
func (b *Banked) Step(now int64) []cache.Addr {
	b.stats.StepCycles++
	b.stats.QueueCycleSum += uint64(b.pending)
	if now < b.nextStart {
		b.stats.BusyCycles++
	}

	if b.pending > 0 && now >= b.nextStart {
		if bank := b.pickBank(); bank >= 0 {
			line, hit := b.pickRequest(bank)
			interval := b.cfg.RowMissInterval
			kind := telemetry.KindDRAMRowMiss
			if hit {
				interval = b.cfg.RowHitInterval
				kind = telemetry.KindDRAMRowHit
				b.stats.RowHits++
			} else {
				b.stats.RowMisses++
			}
			if b.probe.Enabled(kind) {
				b.probe.Emit(b.probeNow(), kind, int16(bank), int64(line), b.rowOf(line))
			}
			b.openRow[bank] = b.rowOf(line)
			b.nextStart = now + int64(interval)
			b.inService = append(b.inService, inflight{
				line: line,
				done: now + int64(b.cfg.Latency) + int64(interval),
			})
			b.stats.BusyCycles++
		}
	}

	b.completed = b.completed[:0]
	// Completions may finish out of order (hits overtake misses issued
	// earlier only via interval differences; the service start order is
	// serial so done times are non-decreasing).
	for len(b.inService) > 0 && b.inService[0].done <= now {
		b.completed = append(b.completed, b.inService[0].line)
		copy(b.inService, b.inService[1:])
		b.inService = b.inService[:len(b.inService)-1]
		b.stats.Serviced++
	}
	return b.completed
}

// pickBank returns the next non-empty bank in round-robin order, preferring
// banks whose head-of-queue hits the open row.
func (b *Banked) pickBank() int {
	fallback := -1
	for off := 0; off < b.cfg.Banks; off++ {
		bank := (b.rr + off) % b.cfg.Banks
		q := b.queues[bank]
		if len(q) == 0 {
			continue
		}
		if fallback < 0 {
			fallback = bank
		}
		if b.hasRowHit(bank) {
			b.rr = (bank + 1) % b.cfg.Banks
			return bank
		}
	}
	if fallback >= 0 {
		b.rr = (fallback + 1) % b.cfg.Banks
	}
	return fallback
}

func (b *Banked) hasRowHit(bank int) bool {
	open := b.openRow[bank]
	if open < 0 {
		return false
	}
	for _, line := range b.queues[bank] {
		if b.rowOf(line) == open {
			return true
		}
	}
	return false
}

// pickRequest removes and returns the request FR-FCFS selects from a bank:
// the oldest open-row hit, else the oldest request.
func (b *Banked) pickRequest(bank int) (cache.Addr, bool) {
	q := b.queues[bank]
	open := b.openRow[bank]
	idx, hit := 0, false
	if open >= 0 {
		for i, line := range q {
			if b.rowOf(line) == open {
				idx, hit = i, true
				break
			}
		}
	}
	line := q[idx]
	b.queues[bank] = append(q[:idx], q[idx+1:]...)
	b.pending--
	return line, hit
}

// Package dram models the GDDR5-style memory controller and DRAM devices of
// the simulated GPU at request granularity. Every request moves one cache
// line (128 bytes). The controller owns a bounded FCFS queue; the devices
// complete at most one request every ServiceInterval memory cycles — that
// interval encodes the aggregate board bandwidth — and each completed request
// additionally pays the access Latency. When the queue is full the L2 stops
// sending misses, which propagates back-pressure all the way to the SM
// load/store units: this is the saturation signal that makes warps pile up
// in the Xmem state (Section III-A of the paper).
package dram

import (
	"fmt"

	"equalizer/internal/cache"
)

// Config holds the controller parameters.
type Config struct {
	// QueueDepth bounds pending requests (beyond the one in service).
	QueueDepth int
	// ServiceInterval is the number of memory cycles between request
	// completions when the queue is backlogged (1/bandwidth).
	ServiceInterval int
	// Latency is the device access latency in memory cycles added to every
	// request on top of queueing and service time.
	Latency int
}

// Validate reports a descriptive error for unusable parameters.
func (c Config) Validate() error {
	switch {
	case c.QueueDepth <= 0:
		return fmt.Errorf("dram: QueueDepth must be positive, got %d", c.QueueDepth)
	case c.ServiceInterval <= 0:
		return fmt.Errorf("dram: ServiceInterval must be positive, got %d", c.ServiceInterval)
	case c.Latency < 0:
		return fmt.Errorf("dram: Latency must be non-negative, got %d", c.Latency)
	}
	return nil
}

// Stats aggregates controller activity, in memory-domain cycles.
type Stats struct {
	// Enqueued counts accepted requests.
	Enqueued uint64
	// Serviced counts completed requests.
	Serviced uint64
	// Rejected counts Enqueue attempts that found the queue full.
	Rejected uint64
	// BusyCycles counts cycles during which the device pipeline was
	// transferring data; BusyCycles/elapsed is bandwidth utilisation.
	BusyCycles uint64
	// QueueCycleSum accumulates queue occupancy every cycle, for mean
	// queue depth.
	QueueCycleSum uint64
	// StepCycles counts observed cycles.
	StepCycles uint64
}

// Utilization returns the fraction of observed cycles the device was busy.
func (s Stats) Utilization() float64 {
	if s.StepCycles == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.StepCycles)
}

// MeanQueueDepth returns the average number of queued requests per cycle.
func (s Stats) MeanQueueDepth() float64 {
	if s.StepCycles == 0 {
		return 0
	}
	return float64(s.QueueCycleSum) / float64(s.StepCycles)
}

type inflight struct {
	line cache.Addr
	done int64
}

// Controller is the memory controller. It is stepped once per memory-domain
// cycle by the GPU model and is not safe for concurrent use.
type Controller struct {
	cfg       Config
	queue     []cache.Addr
	inService []inflight
	// nextStart is the earliest cycle at which a new request may begin
	// service (bandwidth gate).
	nextStart int64
	// completed is the reusable completion buffer returned by Step.
	completed []cache.Addr
	stats     Stats
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:       cfg,
		queue:     make([]cache.Addr, 0, cfg.QueueDepth),
		inService: make([]inflight, 0, 8),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// CanAccept reports whether the queue has room for another request.
func (c *Controller) CanAccept() bool { return len(c.queue) < c.cfg.QueueDepth }

// Enqueue adds a line request, returning false (and counting a rejection)
// when the queue is full.
func (c *Controller) Enqueue(line cache.Addr) bool {
	if !c.CanAccept() {
		c.stats.Rejected++
		return false
	}
	c.queue = append(c.queue, line)
	c.stats.Enqueued++
	return true
}

// Step advances the controller to memory cycle `now` (monotonically
// increasing, one call per cycle) and returns the line addresses whose data
// transfer completed this cycle, in completion order. The returned slice is
// reused across calls; callers must not retain it.
//
//eqlint:cycle-owner
func (c *Controller) Step(now int64) []cache.Addr {
	c.stats.StepCycles++
	c.stats.QueueCycleSum += uint64(len(c.queue))
	if now < c.nextStart && c.nextStart-now <= int64(c.cfg.ServiceInterval) {
		// The device is mid-transfer for a previously started request.
		c.stats.BusyCycles++
	}

	// Begin service of the queue head when the bandwidth gate allows.
	if len(c.queue) > 0 && now >= c.nextStart {
		line := c.queue[0]
		copy(c.queue, c.queue[1:])
		c.queue = c.queue[:len(c.queue)-1]
		c.nextStart = now + int64(c.cfg.ServiceInterval)
		c.inService = append(c.inService, inflight{line: line, done: now + int64(c.cfg.Latency) + int64(c.cfg.ServiceInterval)})
		c.stats.BusyCycles++
	}

	c.completed = c.completed[:0]
	for len(c.inService) > 0 && c.inService[0].done <= now {
		c.completed = append(c.completed, c.inService[0].line)
		copy(c.inService, c.inService[1:])
		c.inService = c.inService[:len(c.inService)-1]
		c.stats.Serviced++
	}
	return c.completed
}

// SkipIdle advances the controller's statistics over n consecutive idle
// cycles first..first+n-1 in closed form, exactly as n Step calls on a
// drained controller would. The caller guarantees Drained() — no queued or
// in-service work — so the only per-cycle effects are the cycle census and
// the residual busy window of the last transfer (empty whenever Latency >= 0,
// but computed exactly rather than assumed).
//
//eqlint:cycle-owner
func (c *Controller) SkipIdle(first, n int64) {
	c.stats.StepCycles += uint64(n)
	// Busy cycles are those t in [first, first+n) with t < nextStart and
	// nextStart-t <= ServiceInterval, i.e. the overlap with
	// [nextStart-ServiceInterval, nextStart).
	lo := c.nextStart - int64(c.cfg.ServiceInterval)
	if lo < first {
		lo = first
	}
	hi := c.nextStart
	if hi > first+n {
		hi = first + n
	}
	if hi > lo {
		c.stats.BusyCycles += uint64(hi - lo)
	}
}

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Drain reports whether the controller holds no work at all.
func (c *Controller) Drained() bool { return len(c.queue) == 0 && len(c.inService) == 0 }

// Package tuner is the service-level sibling of the simulator's Equalizer
// core: an epoch-based feedback controller that watches the serving tier's
// live execution state — queue depth, worker occupancy, shed count, and the
// request-latency histogram — and retunes the run worker-pool width and the
// admission limit every control interval.
//
// The control law mirrors the paper's unsaturated/saturated state machine
// at the service layer. Each epoch is classified from the sampled inputs:
//
//   - saturated — requests were shed, or every worker is busy with cells
//     still queued: the pool is the bottleneck. Grow the pool (half-width
//     steps, so the climb is fast from a small floor yet increasingly
//     cautious near the ceiling) and open the admission limit alongside.
//   - idle — the queue is empty and occupancy sits below the idle
//     fraction: capacity is wasted. Shrink by one worker, but only after
//     ShrinkStreak consecutive idle epochs (hysteresis, exactly like the
//     core's three-epoch block-resize rule).
//   - steady — neither: hold.
//
// Two mechanisms make the hill-climb settle instead of oscillating. Every
// resize is followed by Cooldown observation-only epochs so its effect is
// measured before the next move; and a shrink that turns out to be wrong —
// the next measured epoch is saturated again, or tail latency degraded by
// more than BackoffFrac — is reverted ("backoff") and doubles the idle
// streak required for the next shrink, so repeated mistakes converge to
// holding at the correct width.
//
// Safety: the controller only changes scheduling — how many run cells
// execute concurrently and how many may wait. It never touches a
// simulation parameter, so served results remain byte-identical with the
// controller on or off, and the pool it resizes never interrupts a task in
// flight (workers retire at task boundaries only).
package tuner

import (
	"sync"
	"time"

	"equalizer/internal/telemetry"
)

// Sample is one epoch's observation of the serving tier, taken at the
// control tick. Counters (Shed, Latency) are cumulative since service
// start; the controller differences consecutive samples itself.
type Sample struct {
	// QueueDepth is the number of admitted run cells waiting for a worker
	// right now.
	QueueDepth int
	// Busy and Workers are the pool occupancy: workers executing a cell
	// and the pool's current target width.
	Busy, Workers int
	// AdmitCap is the current admission limit (cells admitted at once,
	// waiting + in flight).
	AdmitCap int
	// Shed is the cumulative count of requests rejected by admission
	// control.
	Shed uint64
	// Latency is a snapshot of the cumulative end-to-end request-latency
	// histogram (service_request_seconds).
	Latency telemetry.HistSnapshot
}

// Target is the tunable surface the controller acts on. Sample must be safe
// to call from the controller goroutine; Apply receives the new pool width
// and admission limit (both already clamped to the configured bounds) and
// is only called when at least one of them changed.
type Target interface {
	Sample() Sample
	Apply(workers, admitCap int)
}

// Config parameterises a Controller.
type Config struct {
	// Interval is the control epoch length (0 = 250ms). Only Start uses
	// it; Tick-driven tests never touch wall time.
	Interval time.Duration
	// MinWorkers and MaxWorkers bound the pool width (0 = 1 and 4×min).
	MinWorkers, MaxWorkers int
	// MinAdmit and MaxAdmit bound the admission limit. 0 means
	// MaxWorkers+1 and 16×MaxWorkers. MinAdmit is also the starting
	// headroom: the admission limit never drops below it, so enabling the
	// controller can only open admission, never tighten it below the
	// operator's configured floor.
	MinAdmit, MaxAdmit int
	// GrowStreak is the number of consecutive saturated epochs required
	// before growing (0 = 1: saturation is expensive, react fast).
	GrowStreak int
	// ShrinkStreak is the number of consecutive idle epochs required
	// before shrinking (0 = 3, the core Equalizer hysteresis).
	ShrinkStreak int
	// Cooldown is the number of observation-only epochs after a resize
	// (0 = 2).
	Cooldown int
	// IdleFrac is the occupancy at or below which an epoch counts as idle
	// (0 = 0.5).
	IdleFrac float64
	// BackoffFrac is the relative p95 degradation after a shrink that
	// triggers a revert (0 = 0.25).
	BackoffFrac float64
	// RingCap sizes the decision ring buffer (0 = 256).
	RingCap int
	// Registry receives the tuner_* metrics; nil uses a private registry.
	Registry *telemetry.Registry
	// Now stamps decisions (nil = time.Now). The control law itself never
	// reads it — epochs advance only by Tick — so a fake clock or none at
	// all yields identical decisions.
	Now func() time.Time
}

// WithDefaults resolves the zero values of a Config; exported so callers
// embedding tuner settings (the service) can resolve them identically.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 4 * c.MinWorkers
	}
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = c.MinWorkers
	}
	if c.MinAdmit <= 0 {
		c.MinAdmit = c.MaxWorkers + 1
	}
	if c.MaxAdmit <= 0 {
		c.MaxAdmit = 16 * c.MaxWorkers
	}
	if c.MaxAdmit < c.MinAdmit {
		c.MaxAdmit = c.MinAdmit
	}
	if c.GrowStreak <= 0 {
		c.GrowStreak = 1
	}
	if c.ShrinkStreak <= 0 {
		c.ShrinkStreak = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2
	}
	if c.IdleFrac <= 0 {
		c.IdleFrac = 0.5
	}
	if c.BackoffFrac <= 0 {
		c.BackoffFrac = 0.25
	}
	if c.RingCap <= 0 {
		c.RingCap = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Verdict is a control decision's outcome.
type Verdict string

const (
	// VerdictWarmup is the first epoch: baseline sample only.
	VerdictWarmup Verdict = "warmup"
	// VerdictHold means no change was warranted.
	VerdictHold Verdict = "hold"
	// VerdictCooldown means a recent resize is still being observed.
	VerdictCooldown Verdict = "cooldown"
	// VerdictGrow means the pool grew (and admission opened with it).
	VerdictGrow Verdict = "grow"
	// VerdictShrink means the pool shrank by one worker.
	VerdictShrink Verdict = "shrink"
	// VerdictBackoff means the previous shrink was reverted because
	// pressure returned or tail latency degraded.
	VerdictBackoff Verdict = "backoff"
)

// Decision is one epoch's record in the /debug/tuner ring: the sampled
// inputs, the verdict, and the settings that left the epoch.
type Decision struct {
	Epoch    int     `json:"epoch"`
	UnixNano int64   `json:"unix_nano"`
	Queue    int     `json:"queue_depth"`
	Busy     int     `json:"busy"`
	Workers  int     `json:"workers"`
	AdmitCap int     `json:"admission_limit"`
	Requests uint64  `json:"requests"`
	Shed     uint64  `json:"shed"`
	P95MS    float64 `json:"p95_ms"`
	Verdict  Verdict `json:"verdict"`
	Reason   string  `json:"reason"`
	// NewWorkers and NewAdmit are the settings after the decision; equal
	// to Workers/AdmitCap on hold-like verdicts.
	NewWorkers int `json:"new_workers"`
	NewAdmit   int `json:"new_admission_limit"`
}

// Controller drives a Target. Construct with New; advance with Tick (tests,
// deterministic) or Start/Stop (production, wall-clock ticker).
type Controller struct {
	cfg    Config
	target Target

	mu          sync.Mutex
	epoch       int
	hasPrev     bool
	prev        Sample
	satStreak   int
	idleStreak  int
	cooldown    int
	lastVerdict Verdict
	refP95      float64 // p95 observed when the last shrink was decided
	shrinkDebt  int     // extra idle epochs demanded after a backoff
	workers     int     // last applied width (tracks the target)
	admit       int     // last applied admission limit
	ring        []Decision
	ringNext    int
	ringTotal   uint64
	stopOnce    sync.Once
	stopCh      chan struct{}
	loop        sync.WaitGroup // the Start goroutine, so Stop can wait it out

	epochs    *telemetry.Counter
	workersG  *telemetry.Gauge
	admitG    *telemetry.Gauge
	p95G      *telemetry.Gauge
	decisions map[Verdict]*telemetry.Counter
}

// New builds a controller for target. It immediately applies the configured
// bounds: the target starts at MinWorkers width and MinAdmit admission, the
// floor the CI smoke asserts the controller climbs away from under load.
func New(cfg Config, target Target) *Controller {
	cfg = cfg.WithDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Controller{
		cfg:    cfg,
		target: target,
		ring:   make([]Decision, cfg.RingCap),
		stopCh: make(chan struct{}),

		epochs:   reg.Counter("tuner_epochs_total", "control epochs evaluated by the service tuner", nil),
		workersG: reg.Gauge("tuner_workers", "worker-pool width set by the service tuner", nil),
		admitG:   reg.Gauge("tuner_admission_limit", "admission limit set by the service tuner", nil),
		p95G:     reg.Gauge("tuner_epoch_p95_seconds", "request p95 latency over the last control epoch", nil),
		decisions: map[Verdict]*telemetry.Counter{
			VerdictWarmup:   reg.Counter("tuner_decisions_total", "tuner decisions by verdict", telemetry.Labels{"verdict": string(VerdictWarmup)}),
			VerdictHold:     reg.Counter("tuner_decisions_total", "tuner decisions by verdict", telemetry.Labels{"verdict": string(VerdictHold)}),
			VerdictCooldown: reg.Counter("tuner_decisions_total", "tuner decisions by verdict", telemetry.Labels{"verdict": string(VerdictCooldown)}),
			VerdictGrow:     reg.Counter("tuner_decisions_total", "tuner decisions by verdict", telemetry.Labels{"verdict": string(VerdictGrow)}),
			VerdictShrink:   reg.Counter("tuner_decisions_total", "tuner decisions by verdict", telemetry.Labels{"verdict": string(VerdictShrink)}),
			VerdictBackoff:  reg.Counter("tuner_decisions_total", "tuner decisions by verdict", telemetry.Labels{"verdict": string(VerdictBackoff)}),
		},
	}
	c.workers = cfg.MinWorkers
	c.admit = cfg.MinAdmit
	target.Apply(c.workers, c.admit)
	c.workersG.Set(float64(c.workers))
	c.admitG.Set(float64(c.admit))
	return c
}

// Config returns the resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Settings returns the currently applied (workers, admission limit).
func (c *Controller) Settings() (workers, admitCap int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers, c.admit
}

// Epochs returns the number of control epochs evaluated so far.
func (c *Controller) Epochs() uint64 { return c.epochs.Value() }

// Start launches the control loop on a wall-clock ticker. Stop ends it.
func (c *Controller) Start() {
	c.loop.Add(1)
	go func() {
		defer c.loop.Done()
		tick := time.NewTicker(c.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case <-tick.C:
				c.Tick()
			}
		}
	}()
}

// Stop ends the control loop and waits for an in-flight Tick to finish, so
// the target sees no Sample or Apply after Stop returns. Idempotent; safe
// without Start.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.loop.Wait()
}

// Tick evaluates one control epoch: sample, classify, decide, apply. It is
// the whole control law — tests drive it directly with synthetic samples
// and wall time never enters the decision.
func (c *Controller) Tick() Decision {
	s := c.target.Sample()
	now := c.cfg.Now().UnixNano()

	c.mu.Lock()
	c.epoch++
	d := Decision{
		Epoch: c.epoch, UnixNano: now,
		Queue: s.QueueDepth, Busy: s.Busy, Workers: s.Workers, AdmitCap: s.AdmitCap,
		NewWorkers: c.workers, NewAdmit: c.admit,
	}
	if !c.hasPrev {
		c.hasPrev = true
		c.prev = s
		d.Verdict, d.Reason = VerdictWarmup, "first epoch: baseline sample"
		c.record(d, 0)
		c.mu.Unlock()
		return d
	}

	delta := s.Latency.Sub(c.prev.Latency)
	p95 := delta.Quantile(0.95)
	shed := s.Shed - c.prev.Shed
	c.prev = s
	d.Requests = delta.Count
	d.Shed = shed
	d.P95MS = p95 * 1e3

	occ := 0.0
	if s.Workers > 0 {
		occ = float64(s.Busy) / float64(s.Workers)
	}
	saturated := shed > 0 || (s.QueueDepth > 0 && s.Busy >= s.Workers)
	idle := shed == 0 && s.QueueDepth == 0 && occ <= c.cfg.IdleFrac

	workers, admit := c.workers, c.admit
	switch {
	case c.cooldown > 0:
		c.cooldown--
		d.Verdict, d.Reason = VerdictCooldown, "observing the last resize"
		// Shedding is never tolerated, cooldown or not: open admission.
		if shed > 0 && admit < c.cfg.MaxAdmit {
			admit = clamp(admit+growStep(admit), c.cfg.MinAdmit, c.cfg.MaxAdmit)
			d.Reason = "cooldown, but shed requests force the admission limit open"
		}
	case saturated:
		c.idleStreak = 0
		c.satStreak++
		if c.satStreak < c.cfg.GrowStreak {
			d.Verdict, d.Reason = VerdictHold, "saturated, awaiting grow hysteresis"
			break
		}
		c.satStreak = 0
		grew := false
		if workers < c.cfg.MaxWorkers {
			workers = clamp(workers+growStep(workers), c.cfg.MinWorkers, c.cfg.MaxWorkers)
			grew = true
		}
		if shed > 0 || grew {
			admit = clamp(admit+growStep(admit), c.cfg.MinAdmit, c.cfg.MaxAdmit)
		}
		if grew || admit != c.admit {
			d.Verdict = VerdictGrow
			if shed > 0 {
				d.Reason = "saturated with shed requests"
			} else {
				d.Reason = "all workers busy with cells queued"
			}
			c.cooldown = c.cfg.Cooldown
			c.lastVerdict = VerdictGrow
		} else {
			d.Verdict, d.Reason = VerdictHold, "saturated at the configured ceiling"
		}
	case idle:
		c.satStreak = 0
		c.idleStreak++
		need := c.cfg.ShrinkStreak + c.shrinkDebt
		if c.idleStreak < need || workers <= c.cfg.MinWorkers {
			if workers <= c.cfg.MinWorkers {
				d.Verdict, d.Reason = VerdictHold, "idle at the configured floor"
			} else {
				d.Verdict, d.Reason = VerdictHold, "idle, awaiting shrink hysteresis"
			}
			break
		}
		c.idleStreak = 0
		workers--
		d.Verdict, d.Reason = VerdictShrink, "sustained idle occupancy"
		c.refP95 = p95
		c.cooldown = c.cfg.Cooldown
		c.lastVerdict = VerdictShrink
	default:
		c.satStreak, c.idleStreak = 0, 0
		d.Verdict, d.Reason = VerdictHold, "steady"
		// Hill-climb backoff: the epoch after a shrink's cooldown shows
		// materially worse tail latency — the shrink was a mistake.
		if c.lastVerdict == VerdictShrink && delta.Count > 0 && c.refP95 > 0 &&
			p95 > c.refP95*(1+c.cfg.BackoffFrac) && workers < c.cfg.MaxWorkers {
			workers++
			d.Verdict, d.Reason = VerdictBackoff, "p95 degraded after shrink; reverting"
			c.shrinkDebt = nextDebt(c.shrinkDebt)
			c.cooldown = c.cfg.Cooldown
			c.lastVerdict = VerdictBackoff
		}
	}

	changed := workers != c.workers || admit != c.admit
	c.workers, c.admit = workers, admit
	d.NewWorkers, d.NewAdmit = workers, admit
	c.record(d, p95)
	c.mu.Unlock()

	if changed {
		c.target.Apply(workers, admit)
	}
	return d
}

// record appends the decision to the ring and refreshes the metrics.
// Caller holds c.mu.
func (c *Controller) record(d Decision, p95 float64) {
	c.ring[c.ringNext] = d
	c.ringNext = (c.ringNext + 1) % len(c.ring)
	c.ringTotal++
	c.epochs.Inc()
	c.workersG.Set(float64(c.workers))
	c.admitG.Set(float64(c.admit))
	c.p95G.Set(p95)
	c.decisions[d.Verdict].Inc()
}

// Decisions returns the retained decision ring, oldest first.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, 0, len(c.ring))
	for i := 0; i < len(c.ring); i++ {
		j := (c.ringNext + i) % len(c.ring)
		if c.ring[j].Epoch > 0 {
			out = append(out, c.ring[j])
		}
	}
	return out
}

// growStep is the hill-climb increment: half the current value, at least
// one — fast from a small floor, increasingly cautious near the ceiling.
func growStep(cur int) int {
	if s := cur / 2; s > 1 {
		return s
	}
	return 1
}

// nextDebt doubles the post-backoff shrink hysteresis, capped so the
// controller can still adapt to a genuinely changed workload.
func nextDebt(cur int) int {
	next := cur*2 + 1
	if next > 16 {
		next = 16
	}
	return next
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

package tuner

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"equalizer/internal/telemetry"
)

// fixedNow keeps decision timestamps deterministic.
func fixedNow() time.Time { return time.Unix(1700000000, 0) }

// TestRampGrowsToDemandAndSettles: a constant load needing six workers makes
// the controller climb monotonically off its floor and then hold a fixed
// width — settle, not oscillate.
func TestRampGrowsToDemandAndSettles(t *testing.T) {
	sim := NewLoadSim(4, 0.005) // 4 requests per worker per epoch
	c := New(Config{MinWorkers: 1, MaxWorkers: 8, Now: fixedNow}, sim)
	const load = 24 // needs 6 workers
	for i := 0; i < 40; i++ {
		sim.Step(load)
		c.Tick()
	}
	workers, _ := c.Settings()
	if workers < 6 {
		t.Fatalf("settled at %d workers; load needs 6", workers)
	}
	decs := c.Decisions()
	if len(decs) != 40 {
		t.Fatalf("decision ring has %d entries, want 40", len(decs))
	}
	prev := 0
	for _, d := range decs {
		if d.NewWorkers < prev {
			t.Fatalf("epoch %d shrank %d -> %d under sustained load", d.Epoch, prev, d.NewWorkers)
		}
		prev = d.NewWorkers
	}
	last := decs[len(decs)-10:]
	for _, d := range last {
		if d.NewWorkers != workers {
			t.Fatalf("epoch %d width %d differs from settled %d: controller oscillates", d.Epoch, d.NewWorkers, workers)
		}
		if d.Shed != 0 {
			t.Fatalf("epoch %d still shedding %d requests after settling", d.Epoch, d.Shed)
		}
	}
	if sim.Backlog() != 0 {
		t.Fatalf("backlog %d after settling, want 0", sim.Backlog())
	}
}

// TestSpikeThenRecovery: after a spike ends, sustained idle epochs shrink
// the pool back toward the floor, with hysteresis and backoff keeping the
// modelled tail latency from degrading.
func TestSpikeThenRecovery(t *testing.T) {
	sim := NewLoadSim(4, 0.005)
	c := New(Config{MinWorkers: 1, MaxWorkers: 8, ShrinkStreak: 2, Cooldown: 1, Now: fixedNow}, sim)
	for i := 0; i < 20; i++ {
		sim.Step(24)
		c.Tick()
	}
	peak, _ := c.Settings()
	if peak < 6 {
		t.Fatalf("spike grew pool to %d, want >= 6", peak)
	}
	shedAtPeak := sim.TotalShed()
	for i := 0; i < 100; i++ {
		sim.Step(2) // trickle: half a worker's capacity
		c.Tick()
	}
	workers, _ := c.Settings()
	if workers > 2 {
		t.Fatalf("pool still at %d workers after 100 trickle epochs, want <= 2", workers)
	}
	if got := sim.TotalShed(); got != shedAtPeak {
		t.Fatalf("shed %d requests during recovery", got-shedAtPeak)
	}
	var sawShrink bool
	for _, d := range c.Decisions() {
		if d.Verdict == VerdictShrink {
			sawShrink = true
		}
	}
	if !sawShrink {
		t.Fatal("no shrink verdict recorded during recovery")
	}
}

// TestIdleHoldsAtFloor: with no load at all the controller never moves.
func TestIdleHoldsAtFloor(t *testing.T) {
	sim := NewLoadSim(4, 0.005)
	c := New(Config{MinWorkers: 2, MaxWorkers: 8, Now: fixedNow}, sim)
	if got := sim.Applies(); got != 1 {
		t.Fatalf("applies after New = %d, want 1 (initial bounds)", got)
	}
	for i := 0; i < 20; i++ {
		sim.Step(0)
		c.Tick()
	}
	workers, admit := c.Settings()
	if workers != 2 {
		t.Fatalf("idle pool moved to %d workers, want floor 2", workers)
	}
	if admit != c.Config().MinAdmit {
		t.Fatalf("idle admission moved to %d, want floor %d", admit, c.Config().MinAdmit)
	}
	if got := sim.Applies(); got != 1 {
		t.Fatalf("controller applied %d changes on an idle target", got-1)
	}
	for _, d := range c.Decisions() {
		if d.Verdict != VerdictWarmup && d.Verdict != VerdictHold {
			t.Fatalf("epoch %d verdict %q on an idle target", d.Epoch, d.Verdict)
		}
	}
}

// scriptTarget feeds hand-built samples and records what the controller
// applies, for exercising exact decision sequences.
type scriptTarget struct {
	s       Sample
	hist    *telemetry.Histogram
	applied [][2]int
}

func newScriptTarget() *scriptTarget {
	reg := telemetry.NewRegistry()
	return &scriptTarget{
		hist: reg.Histogram("script_seconds", "scripted latency",
			[]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}, nil),
	}
}

func (st *scriptTarget) Sample() Sample {
	s := st.s
	s.Latency = st.hist.Snapshot()
	return s
}

func (st *scriptTarget) Apply(w, a int) {
	st.applied = append(st.applied, [2]int{w, a})
	st.s.Workers = w
	st.s.AdmitCap = a
}

func (st *scriptTarget) observe(v float64, n int) {
	for i := 0; i < n; i++ {
		st.hist.Observe(v)
	}
}

// TestBackoffRevertsBadShrink walks the exact scripted sequence: grow twice
// under saturation, shrink after idle hysteresis, then show degraded tail
// latency — the controller reverts the shrink and demands a longer idle
// streak before trying again.
func TestBackoffRevertsBadShrink(t *testing.T) {
	st := newScriptTarget()
	c := New(Config{
		MinWorkers: 1, MaxWorkers: 8,
		GrowStreak: 1, ShrinkStreak: 2, Cooldown: 1,
		BackoffFrac: 0.25, Now: fixedNow,
	}, st)

	tick := func(wantVerdict Verdict) Decision {
		t.Helper()
		d := c.Tick()
		if d.Verdict != wantVerdict {
			t.Fatalf("epoch %d verdict %q (%s), want %q", d.Epoch, d.Verdict, d.Reason, wantVerdict)
		}
		return d
	}

	tick(VerdictWarmup)

	// Saturation: all workers busy with cells queued. Grow 1 -> 2.
	st.s.QueueDepth, st.s.Busy = 3, 1
	st.observe(0.01, 10)
	d := tick(VerdictGrow)
	if d.NewWorkers != 2 {
		t.Fatalf("grow to %d workers, want 2", d.NewWorkers)
	}
	tick(VerdictCooldown)

	// Still saturated. Grow 2 -> 3.
	st.s.Busy = 2
	st.observe(0.01, 10)
	d = tick(VerdictGrow)
	if d.NewWorkers != 3 {
		t.Fatalf("grow to %d workers, want 3", d.NewWorkers)
	}
	tick(VerdictCooldown)

	// Idle at low latency; shrink after the 2-epoch streak. The p95 at the
	// shrink epoch (~10ms) becomes the backoff reference.
	st.s.QueueDepth, st.s.Busy = 0, 1
	st.observe(0.01, 10)
	tick(VerdictHold)
	st.observe(0.01, 10)
	d = tick(VerdictShrink)
	if d.NewWorkers != 2 {
		t.Fatalf("shrink to %d workers, want 2", d.NewWorkers)
	}
	tick(VerdictCooldown)

	// Steady but with 10x worse latency: the shrink was a mistake.
	st.s.Busy = 2
	st.observe(0.1, 10)
	d = tick(VerdictBackoff)
	if d.NewWorkers != 3 {
		t.Fatalf("backoff to %d workers, want 3", d.NewWorkers)
	}
	tick(VerdictCooldown)

	// Idle again at low latency: the post-backoff debt demands a 3-epoch
	// streak (2 + 1) before the next shrink.
	st.s.Busy = 1
	for i := 0; i < 2; i++ {
		st.observe(0.01, 10)
		tick(VerdictHold)
	}
	st.observe(0.01, 10)
	d = tick(VerdictShrink)
	if d.NewWorkers != 2 {
		t.Fatalf("post-debt shrink to %d workers, want 2", d.NewWorkers)
	}

	// init floor, grow, grow, shrink, backoff, post-debt shrink.
	if len(st.applied) != 6 {
		t.Fatalf("controller applied %d changes, want 6", len(st.applied))
	}
}

// TestShedForcesAdmissionOpenDuringCooldown: shed requests always open the
// admission limit, even inside a resize cooldown.
func TestShedForcesAdmissionOpenDuringCooldown(t *testing.T) {
	st := newScriptTarget()
	c := New(Config{MinWorkers: 1, MaxWorkers: 4, MinAdmit: 5, MaxAdmit: 64, Cooldown: 3, Now: fixedNow}, st)
	tickOK := func() Decision { t.Helper(); return c.Tick() }

	tickOK() // warmup
	st.s.QueueDepth, st.s.Busy, st.s.Shed = 4, 1, 10
	st.observe(0.01, 5)
	d := tickOK()
	if d.Verdict != VerdictGrow {
		t.Fatalf("verdict %q, want grow", d.Verdict)
	}
	admitAfterGrow := d.NewAdmit
	st.s.Shed = 25 // more shed while cooling down
	st.observe(0.01, 5)
	d = tickOK()
	if d.Verdict != VerdictCooldown {
		t.Fatalf("verdict %q, want cooldown", d.Verdict)
	}
	if d.NewAdmit <= admitAfterGrow {
		t.Fatalf("admission %d did not open during cooldown despite shed (was %d)", d.NewAdmit, admitAfterGrow)
	}
}

// TestMetricsExported: tuner_* series land in the shared registry.
func TestMetricsExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	sim := NewLoadSim(4, 0.005)
	c := New(Config{MinWorkers: 1, MaxWorkers: 4, Registry: reg, Now: fixedNow}, sim)
	for i := 0; i < 5; i++ {
		sim.Step(20)
		c.Tick()
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"tuner_epochs_total 5",
		"tuner_workers ",
		"tuner_admission_limit ",
		`tuner_decisions_total{verdict="grow"}`,
		`tuner_decisions_total{verdict="warmup"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if c.Epochs() != 5 {
		t.Errorf("Epochs() = %d, want 5", c.Epochs())
	}
}

// TestStartStopTicker: the wall-clock loop ticks and Stop is idempotent.
func TestStartStopTicker(t *testing.T) {
	sim := NewLoadSim(4, 0.005)
	c := New(Config{Interval: time.Millisecond, MinWorkers: 1, MaxWorkers: 2}, sim)
	c.Start()
	deadline := time.Now().Add(5 * time.Second)
	for c.Epochs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
}

// blockingTarget parks the control loop inside Sample until released and
// counts the calls that reach it afterwards.
type blockingTarget struct {
	entered chan struct{} // closed when the first Sample is in flight
	release chan struct{}
	once    sync.Once
	calls   atomic.Int64
}

func (b *blockingTarget) Sample() Sample {
	b.calls.Add(1)
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return Sample{}
}

func (b *blockingTarget) Apply(int, int) { b.calls.Add(1) }

// TestStopWaitsForInFlightTick: Stop may not return while a Tick is still
// inside the target, or a drain could be followed by one more resize (the
// "still ticking after drain" flake).
func TestStopWaitsForInFlightTick(t *testing.T) {
	tgt := &blockingTarget{entered: make(chan struct{}), release: make(chan struct{})}
	c := New(Config{Interval: time.Millisecond, MinWorkers: 1, MaxWorkers: 2}, tgt)
	c.Start()
	select {
	case <-tgt.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("ticker never reached the target")
	}

	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a Tick was blocked inside Sample")
	case <-time.After(20 * time.Millisecond):
	}

	close(tgt.release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never returned after the Tick finished")
	}
	after, epochs := tgt.calls.Load(), c.Epochs()
	time.Sleep(10 * time.Millisecond) // ten intervals
	if got := tgt.calls.Load(); got != after {
		t.Errorf("target called %d more times after Stop returned", got-after)
	}
	if got := c.Epochs(); got != epochs {
		t.Errorf("epochs moved %d -> %d after Stop returned", epochs, got)
	}
	c.Stop() // still idempotent
}

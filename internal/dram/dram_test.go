package dram

import (
	"testing"
	"testing/quick"

	"equalizer/internal/cache"
)

func cfg() Config { return Config{QueueDepth: 4, ServiceInterval: 2, Latency: 10} }

func TestValidate(t *testing.T) {
	bad := []Config{
		{QueueDepth: 0, ServiceInterval: 1, Latency: 0},
		{QueueDepth: 1, ServiceInterval: 0, Latency: 0},
		{QueueDepth: 1, ServiceInterval: 1, Latency: -1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: accepted invalid config %+v", i, c)
		}
	}
	if _, err := New(cfg()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSingleRequestLatency(t *testing.T) {
	c := MustNew(cfg())
	c.Enqueue(0x1000)
	var done []cache.Addr
	var cycle int64
	for cycle = 0; cycle < 100; cycle++ {
		if out := c.Step(cycle); len(out) > 0 {
			done = append(done, out...)
			break
		}
	}
	if len(done) != 1 || done[0] != 0x1000 {
		t.Fatalf("completions = %v, want [0x1000]", done)
	}
	// Service starts at cycle 0, completes at latency+interval = 12.
	if cycle != 12 {
		t.Fatalf("completion at cycle %d, want 12", cycle)
	}
}

func TestBandwidthGate(t *testing.T) {
	c := MustNew(Config{QueueDepth: 16, ServiceInterval: 4, Latency: 0})
	for i := 0; i < 4; i++ {
		c.Enqueue(cache.Addr(i * 0x80))
	}
	var completions []int64
	for cycle := int64(0); cycle < 64 && !c.Drained(); cycle++ {
		for range c.Step(cycle) {
			completions = append(completions, cycle)
		}
	}
	if len(completions) != 4 {
		t.Fatalf("serviced %d requests, want 4", len(completions))
	}
	for i := 1; i < len(completions); i++ {
		if gap := completions[i] - completions[i-1]; gap != 4 {
			t.Fatalf("completion gap %d at %d, want 4 (bandwidth-limited)", gap, i)
		}
	}
}

func TestQueueFullRejects(t *testing.T) {
	c := MustNew(cfg())
	for i := 0; i < 4; i++ {
		if !c.Enqueue(cache.Addr(i)) {
			t.Fatalf("enqueue %d rejected with room available", i)
		}
	}
	if c.CanAccept() {
		t.Fatal("CanAccept true with full queue")
	}
	if c.Enqueue(0x99) {
		t.Fatal("enqueue succeeded on full queue")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.Stats().Rejected)
	}
	// Starting service on the head frees one slot and re-opens the queue.
	c.Step(0)
	if !c.CanAccept() {
		t.Fatal("queue still full after service began")
	}
	if !c.Enqueue(0x9a) {
		t.Fatal("enqueue rejected after service began")
	}
	if c.CanAccept() || c.Enqueue(0x9b) {
		t.Fatal("queue accepted a request beyond its depth of 4")
	}
	if c.Stats().Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", c.Stats().Rejected)
	}
}

func TestFIFOOrder(t *testing.T) {
	c := MustNew(cfg())
	want := []cache.Addr{0x80, 0x100, 0x180}
	for _, a := range want {
		c.Enqueue(a)
	}
	var got []cache.Addr
	for cycle := int64(0); !c.Drained(); cycle++ {
		got = append(got, c.Step(cycle)...)
	}
	if len(got) != len(want) {
		t.Fatalf("serviced %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestUtilizationSaturates(t *testing.T) {
	c := MustNew(Config{QueueDepth: 64, ServiceInterval: 2, Latency: 4})
	cycle := int64(0)
	for ; cycle < 512; cycle++ {
		c.Enqueue(cache.Addr(cycle * 0x80)) // offered load >> bandwidth
		c.Step(cycle)
	}
	u := c.Stats().Utilization()
	if u < 0.95 {
		t.Fatalf("utilization under saturation = %g, want ~1", u)
	}
	if mq := c.Stats().MeanQueueDepth(); mq < 10 {
		t.Fatalf("mean queue depth = %g, want large under saturation", mq)
	}
}

func TestIdleUtilizationZero(t *testing.T) {
	c := MustNew(cfg())
	for cycle := int64(0); cycle < 100; cycle++ {
		c.Step(cycle)
	}
	if u := c.Stats().Utilization(); u != 0 {
		t.Fatalf("idle utilization = %g, want 0", u)
	}
}

// Property: everything enqueued is eventually serviced exactly once, in FIFO
// order, regardless of arrival pattern.
func TestQuickConservation(t *testing.T) {
	f := func(arrivals []uint8) bool {
		c := MustNew(Config{QueueDepth: 1 << 16, ServiceInterval: 3, Latency: 7})
		var sent, got []cache.Addr
		cycle := int64(0)
		i := 0
		for !c.Drained() || i < len(arrivals) {
			if i < len(arrivals) {
				// arrival gap derived from input
				if int(arrivals[i])%4 != 0 || true {
					a := cache.Addr(i) * 0x80
					c.Enqueue(a)
					sent = append(sent, a)
					i++
				}
			}
			got = append(got, c.Step(cycle)...)
			cycle++
			if cycle > int64(len(arrivals)+1)*64+1024 {
				return false // should have drained long ago
			}
		}
		if len(got) != len(sent) {
			return false
		}
		for j := range got {
			if got[j] != sent[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSkipIdleMatchesIdleSteps drives two flat controllers through the same
// request burst, drains both, then advances one with per-cycle Steps and the
// other with a single SkipIdle and compares statistics — including the cycle
// right after the last completion, where a residual busy window could hide.
func TestSkipIdleMatchesIdleSteps(t *testing.T) {
	for _, latency := range []int{0, 3, 100} {
		cfg := Config{QueueDepth: 8, ServiceInterval: 4, Latency: latency}
		step := MustNew(cfg)
		skip := MustNew(cfg)
		for i := 0; i < 5; i++ {
			step.Enqueue(cache.Addr(i * 128))
			skip.Enqueue(cache.Addr(i * 128))
		}
		now := int64(0)
		for !step.Drained() || !skip.Drained() {
			step.Step(now)
			skip.Step(now)
			now++
			if now > 10_000 {
				t.Fatal("controllers never drained")
			}
		}
		const n = 1000
		for i := int64(0); i < n; i++ {
			step.Step(now + i)
		}
		skip.SkipIdle(now, n)
		if step.Stats() != skip.Stats() {
			t.Fatalf("latency=%d: stepped stats %+v, skipped stats %+v",
				latency, step.Stats(), skip.Stats())
		}
	}
}

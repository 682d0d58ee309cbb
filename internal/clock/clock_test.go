package clock

import (
	"testing"
	"testing/quick"

	"equalizer/internal/config"
)

func TestDomainTickAdvancesMonotonically(t *testing.T) {
	d := NewDomain("sm", 1000, 0.15)
	var prev Time = -1
	for i := 0; i < 100; i++ {
		now := d.Tick()
		if now <= prev {
			t.Fatalf("tick %d: time %d not after %d", i, now, prev)
		}
		prev = now
	}
	if d.Cycle() != 100 {
		t.Fatalf("cycle count = %d, want 100", d.Cycle())
	}
}

func TestDomainPeriodScalesWithLevel(t *testing.T) {
	d := NewDomain("sm", 1000, 0.15)
	d.Tick() // t=0 boundary
	base := d.Tick() - 0
	if base != 1000 {
		t.Fatalf("normal period = %d, want 1000", base)
	}

	d.RequestLevel(config.VFHigh, 0)
	t0 := d.Tick()
	t1 := d.Tick()
	high := t1 - t0
	if high >= 1000 {
		t.Fatalf("high period = %d, want < 1000", high)
	}

	d.RequestLevel(config.VFLow, 0)
	t0 = d.Tick()
	t1 = d.Tick()
	low := t1 - t0
	if low <= 1000 {
		t.Fatalf("low period = %d, want > 1000", low)
	}
	// 1000/0.85 ≈ 1176, 1000/1.15 ≈ 869.
	if low != 1176 || high != 869 {
		t.Fatalf("periods low=%d high=%d, want 1176 and 869", low, high)
	}
}

func TestDomainTransitionDelay(t *testing.T) {
	d := NewDomain("sm", 1000, 0.15)
	// Request high, effective only at t=5000.
	d.RequestLevel(config.VFHigh, 5000)
	var last Time
	for d.Level() == config.VFNormal {
		last = d.Tick()
		if last > 10000 {
			t.Fatalf("transition never applied")
		}
	}
	if last < 5000 {
		t.Fatalf("transition applied at %d, before effective time 5000", last)
	}
	if d.Level() != config.VFHigh {
		t.Fatalf("level = %v, want high", d.Level())
	}
}

func TestRequestSameLevelIsNoOp(t *testing.T) {
	d := NewDomain("mem", 1000, 0.15)
	// Requesting the current level schedules nothing: ticking past its
	// effective time keeps the level and the nominal period.
	d.RequestLevel(config.VFNormal, 100)
	d.Tick()
	if got := d.Tick(); got != 1000 || d.Level() != config.VFNormal {
		t.Fatalf("tick at %d with level %v, want 1000 at normal", got, d.Level())
	}
	d.RequestLevel(config.VFHigh, 100)
	if d.Level() != config.VFNormal {
		t.Fatalf("level = %v before the next tick, want normal", d.Level())
	}
	// Re-requesting the pending level must not extend the transition.
	d.RequestLevel(config.VFHigh, 99999)
	d.Tick()
	if d.Level() != config.VFHigh {
		t.Fatalf("level = %v after effective time, want high", d.Level())
	}
}

func TestResidencyAccounting(t *testing.T) {
	d := NewDomain("sm", 1000, 0.15)
	for i := 0; i < 10; i++ {
		d.Tick()
	}
	d.RequestLevel(config.VFLow, 0)
	for i := 0; i < 10; i++ {
		d.Tick()
	}
	low, normal, high := d.Residency()
	if high != 0 {
		t.Fatalf("high residency = %d, want 0", high)
	}
	if normal == 0 || low == 0 {
		t.Fatalf("residency normal=%d low=%d, want both positive", normal, low)
	}
	total := low + normal + high
	// Residency is accumulated up to the last tick boundary.
	if total <= 0 {
		t.Fatalf("total residency %d not positive", total)
	}
}

// Property: ticking any domain is strictly monotonic in time regardless of
// the sequence of level requests.
func TestQuickMonotonicUnderRandomDVFS(t *testing.T) {
	f := func(levels []uint8) bool {
		d := NewDomain("sm", 1000, 0.15)
		prev := Time(-1)
		for i, l := range levels {
			d.RequestLevel(config.VFLevel(int(l)%3), d.Next())
			now := d.Tick()
			if now <= prev {
				return false
			}
			prev = now
			if i > 512 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesToTime(t *testing.T) {
	d := NewDomain("sm", 1000, 0.15)
	if got := d.CyclesToTime(512); got != 512*1000 {
		t.Fatalf("CyclesToTime(512) = %d, want 512000", got)
	}
	d.RequestLevel(config.VFHigh, 0)
	d.Tick()
	if got := d.CyclesToTime(100); got != 100*869 {
		t.Fatalf("CyclesToTime(100)@high = %d, want %d", got, 100*869)
	}
}

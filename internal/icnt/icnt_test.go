package icnt

import (
	"fmt"
	"testing"
	"testing/quick"

	"equalizer/internal/cache"
)

func cfg() Config { return Config{NumSMs: 3, QueueDepth: 2, DrainPerCycle: 4} }

func TestValidate(t *testing.T) {
	bad := []Config{
		{NumSMs: 0, QueueDepth: 1, DrainPerCycle: 1},
		{NumSMs: 1, QueueDepth: 0, DrainPerCycle: 1},
		{NumSMs: 1, QueueDepth: 1, DrainPerCycle: 0},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: accepted invalid config %+v", i, c)
		}
	}
}

func TestPushBoundedPerSM(t *testing.T) {
	n := MustNew(cfg())
	if !n.Push(Request{SM: 0, Line: 0x80}) || !n.Push(Request{SM: 0, Line: 0x100}) {
		t.Fatal("pushes within depth rejected")
	}
	if n.CanPush(0) {
		t.Fatal("CanPush true on full FIFO")
	}
	if n.Push(Request{SM: 0, Line: 0x180}) {
		t.Fatal("push succeeded on full FIFO")
	}
	if !n.CanPush(1) {
		t.Fatal("other SM's FIFO should be open")
	}
	if n.Stats().Stalled != 1 {
		t.Fatalf("stalled = %d, want 1", n.Stats().Stalled)
	}
}

func TestDrainRoundRobinFairness(t *testing.T) {
	n := MustNew(Config{NumSMs: 3, QueueDepth: 4, DrainPerCycle: 3})
	for sm := 0; sm < 3; sm++ {
		n.Push(Request{SM: sm, Line: cache.Addr(sm * 0x80)})
		n.Push(Request{SM: sm, Line: cache.Addr(sm*0x80 + 0x1000)})
	}
	var got []int
	n.Drain(func(r Request) bool { got = append(got, r.SM); return true })
	if len(got) != 3 {
		t.Fatalf("delivered %d, want 3 (DrainPerCycle)", len(got))
	}
	// One from each SM, not three from SM 0.
	seen := map[int]int{}
	for _, sm := range got {
		seen[sm]++
	}
	for sm := 0; sm < 3; sm++ {
		if seen[sm] != 1 {
			t.Fatalf("SM %d delivered %d requests in one cycle, want 1 each: %v", sm, seen[sm], got)
		}
	}
}

func TestDrainRespectsBackpressure(t *testing.T) {
	n := MustNew(cfg())
	n.Push(Request{SM: 0, Line: 0x80})
	n.Push(Request{SM: 1, Line: 0x100})
	var got []cache.Addr
	n.Drain(func(r Request) bool {
		if r.SM == 0 {
			return false // downstream refuses SM 0's request
		}
		got = append(got, r.Line)
		return true
	})
	if len(got) != 1 || got[0] != 0x100 {
		t.Fatalf("delivered = %v, want only SM 1's request", got)
	}
	if n.QueueLen(0) != 1 {
		t.Fatal("refused request must stay at FIFO head")
	}
	if n.Stats().BlockedDeliveries == 0 {
		t.Fatal("blocked delivery not counted")
	}
}

func TestDrainStopsWhenAllBlocked(t *testing.T) {
	n := MustNew(cfg())
	for sm := 0; sm < 3; sm++ {
		n.Push(Request{SM: sm, Line: 0x80})
	}
	calls := 0
	n.Drain(func(Request) bool { calls++; return false })
	if calls != 3 {
		t.Fatalf("consume called %d times, want 3 (once per blocked port)", calls)
	}
	if n.Pending() != 3 {
		t.Fatal("blocked requests must remain queued")
	}
}

func TestDrainEmptyIsNoOp(t *testing.T) {
	n := MustNew(cfg())
	n.Drain(func(Request) bool { t.Fatal("consume called on empty network"); return true })
	if !n.Drained() {
		t.Fatal("empty network not drained")
	}
}

func TestFIFOOrderPerPort(t *testing.T) {
	n := MustNew(Config{NumSMs: 1, QueueDepth: 8, DrainPerCycle: 8})
	want := []cache.Addr{0x80, 0x100, 0x180}
	for _, a := range want {
		n.Push(Request{SM: 0, Line: a})
	}
	var got []cache.Addr
	n.Drain(func(r Request) bool { got = append(got, r.Line); return true })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

// Property: pushed == delivered + still-pending after any sequence,
// and per-SM occupancy never exceeds QueueDepth.
func TestQuickConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		c := Config{NumSMs: 4, QueueDepth: 3, DrainPerCycle: 2}
		n := MustNew(c)
		delivered := 0
		for _, op := range ops {
			if op%5 == 0 {
				n.Drain(func(Request) bool { delivered++; return true })
			} else {
				n.Push(Request{SM: int(op) % c.NumSMs, Line: cache.Addr(op) * 0x80})
			}
			for sm := 0; sm < c.NumSMs; sm++ {
				if n.QueueLen(sm) > c.QueueDepth {
					return false
				}
			}
		}
		s := n.Stats()
		return s.Pushed == uint64(delivered+n.Pending())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainReoffersRefusedPortAfterDelivery pins Drain's stopping rule: a
// delivery resets the run of non-deliveries, so a refused head is offered
// again in the same call, and the call ends only after NumSMs consecutive
// visits deliver nothing (or DrainPerCycle deliveries).
func TestDrainReoffersRefusedPortAfterDelivery(t *testing.T) {
	n := MustNew(Config{NumSMs: 3, QueueDepth: 4, DrainPerCycle: 8})
	n.Push(Request{SM: 0, Line: 0x80})
	for i := 0; i < 3; i++ {
		n.Push(Request{SM: 1, Line: cache.Addr(0x100 + 0x80*i)})
	}
	var visits []int
	n.Drain(func(r Request) bool {
		visits = append(visits, r.SM)
		return r.SM != 0
	})
	// Port 2 is empty and never reaches the consumer; port 0 is refused
	// again after each of port 1's deliveries, and the call ends after empty
	// port 2, refused port 0 and drained port 1 deliver nothing in a row.
	want := []int{0, 1, 0, 1, 0, 1, 0}
	if fmt.Sprint(visits) != fmt.Sprint(want) {
		t.Fatalf("consumer saw ports %v, want %v", visits, want)
	}
	if s := n.Stats(); s.Delivered != 3 || s.BlockedDeliveries != 4 {
		t.Fatalf("delivered %d, blocked %d; want 3 and 4", s.Delivered, s.BlockedDeliveries)
	}

	// With every head accepted, DrainPerCycle ends the call.
	n = MustNew(Config{NumSMs: 2, QueueDepth: 4, DrainPerCycle: 3})
	for i := 0; i < 4; i++ {
		n.Push(Request{SM: i % 2, Line: cache.Addr(0x80 * i)})
	}
	calls := 0
	n.Drain(func(Request) bool { calls++; return true })
	if calls != 3 || n.Pending() != 1 {
		t.Fatalf("consumer called %d times leaving %d queued, want 3 and 1", calls, n.Pending())
	}
}

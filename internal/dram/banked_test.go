package dram

import (
	"testing"
	"testing/quick"

	"equalizer/internal/cache"
)

func bankedCfg() BankedConfig {
	return BankedConfig{
		Banks: 4, RowBytes: 1024, QueueDepth: 32,
		RowHitInterval: 1, RowMissInterval: 4, Latency: 10,
	}
}

func TestBankedValidate(t *testing.T) {
	bad := []func(*BankedConfig){
		func(c *BankedConfig) { c.Banks = 0 },
		func(c *BankedConfig) { c.RowBytes = 1000 },
		func(c *BankedConfig) { c.QueueDepth = 0 },
		func(c *BankedConfig) { c.RowHitInterval = 0 },
		func(c *BankedConfig) { c.RowMissInterval = 0 },
		func(c *BankedConfig) { c.Latency = -1 },
	}
	for i, mutate := range bad {
		c := bankedCfg()
		mutate(&c)
		if _, err := NewBanked(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultBanked().Validate(); err != nil {
		t.Fatalf("default banked config invalid: %v", err)
	}
}

// drainAll services everything and returns (lines, completion cycles).
func drainAll(b *Banked, limit int64) ([]cache.Addr, []int64) {
	var lines []cache.Addr
	var at []int64
	for cycle := int64(0); cycle < limit && !b.Drained(); cycle++ {
		for _, l := range b.Step(cycle) {
			lines = append(lines, l)
			at = append(at, cycle)
		}
	}
	return lines, at
}

func TestRowHitsServiceFaster(t *testing.T) {
	// Same-row requests stream at the hit interval; scattered rows pay the
	// miss penalty every time.
	sameRow := MustNewBanked(bankedCfg())
	for i := 0; i < 8; i++ {
		sameRow.Enqueue(cache.Addr(i * 128)) // all inside row 0
	}
	_, atSame := drainAll(sameRow, 10000)

	scattered := MustNewBanked(bankedCfg())
	for i := 0; i < 8; i++ {
		// Same bank (stride banks*rowBytes), different row every time.
		scattered.Enqueue(cache.Addr(i * 4 * 1024))
	}
	_, atScattered := drainAll(scattered, 10000)

	if atSame[len(atSame)-1] >= atScattered[len(atScattered)-1] {
		t.Fatalf("row-hit stream (%d cycles) not faster than row-miss stream (%d)",
			atSame[len(atSame)-1], atScattered[len(atScattered)-1])
	}
	if hr := sameRow.BankedStats().RowHitRate(); hr < 0.8 {
		t.Fatalf("same-row hit rate = %.2f, want high", hr)
	}
	if hr := scattered.BankedStats().RowHitRate(); hr != 0 {
		t.Fatalf("scattered hit rate = %.2f, want 0", hr)
	}
}

func TestFRFCFSPrefersOpenRow(t *testing.T) {
	b := MustNewBanked(bankedCfg())
	// Bank 0: open row 0 via first request; then a row-1 request arrives
	// before another row-0 request. FR-FCFS must service the row-0 hit
	// before the older row-1 miss once the row is open.
	b.Enqueue(cache.Addr(0))        // row 0, opens it
	b.Enqueue(cache.Addr(4 * 1024)) // bank 0, row 4 (miss)
	b.Enqueue(cache.Addr(128))      // row 0 again (hit)
	lines, _ := drainAll(b, 1000)
	if len(lines) != 3 {
		t.Fatalf("serviced %d, want 3", len(lines))
	}
	if lines[1] != 128 {
		t.Fatalf("second service = %#x, want the row-0 hit (0x80)", uint64(lines[1]))
	}
	if b.BankedStats().RowHits != 1 {
		t.Fatalf("row hits = %d, want 1", b.BankedStats().RowHits)
	}
}

func TestBankInterleaving(t *testing.T) {
	b := MustNewBanked(bankedCfg())
	// Consecutive rows map to different banks.
	if b.bankOf(0) == b.bankOf(1024) {
		t.Fatal("adjacent rows in the same bank")
	}
	if b.bankOf(0) != b.bankOf(4*1024) {
		t.Fatal("bank mapping must wrap at Banks*RowBytes")
	}
}

func TestBankedQueueBound(t *testing.T) {
	b := MustNewBanked(bankedCfg())
	for i := 0; i < 32; i++ {
		if !b.Enqueue(cache.Addr(i * 128)) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if b.CanAccept() || b.Enqueue(0x999999) {
		t.Fatal("accepted past QueueDepth")
	}
	if b.Stats().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
}

// Property: everything enqueued is serviced exactly once, regardless of the
// address pattern, and completion times never decrease.
func TestQuickBankedConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		b := MustNewBanked(bankedCfg())
		want := map[cache.Addr]int{}
		n := 0
		for _, r := range raw {
			if n >= 32 {
				break
			}
			a := cache.Addr(r) * 128
			if b.Enqueue(a) {
				want[a]++
				n++
			}
		}
		lines, at := drainAll(b, 100000)
		if len(lines) != n {
			return false
		}
		for i := 1; i < len(at); i++ {
			if at[i] < at[i-1] {
				return false
			}
		}
		got := map[cache.Addr]int{}
		for _, l := range lines {
			got[l]++
		}
		for a, c := range want {
			if got[a] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBankedUtilizationUnderStreaming(t *testing.T) {
	b := MustNewBanked(bankedCfg())
	cycle := int64(0)
	for ; cycle < 2048; cycle++ {
		b.Enqueue(cache.Addr(cycle) * 128) // sequential lines: row hits
		b.Step(cycle)
	}
	if u := b.Stats().Utilization(); u < 0.9 {
		t.Fatalf("streaming utilization = %.2f, want near 1", u)
	}
	if hr := b.BankedStats().RowHitRate(); hr < 0.75 {
		t.Fatalf("streaming row hit rate = %.2f, want high", hr)
	}
}

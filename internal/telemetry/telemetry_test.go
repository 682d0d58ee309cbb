package telemetry

import (
	"testing"
)

func TestBusRecordsInOrder(t *testing.T) {
	b := NewBus(8, MaskAll)
	for i := int64(0); i < 5; i++ {
		b.Emit(i*100, KindEpoch, -1, i, 0)
	}
	if b.Len() != 5 || b.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", b.Len(), b.Dropped())
	}
	ev := b.Events()
	for i, e := range ev {
		if e.A != int64(i) || e.TimePS != int64(i)*100 {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

func TestBusWrapsOverwritingOldest(t *testing.T) {
	b := NewBus(4, MaskAll)
	for i := int64(0); i < 6; i++ {
		b.Emit(i, KindEpoch, -1, i, 0)
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", b.Dropped())
	}
	ev := b.Events()
	if len(ev) != 4 || ev[0].A != 2 || ev[3].A != 5 {
		t.Fatalf("want events 2..5 oldest-first, got %+v", ev)
	}
}

func TestBusMaskFilters(t *testing.T) {
	b := NewBus(8, MaskOf(KindEpoch))
	b.Emit(0, KindWarpIssue, 0, 0, 0)
	b.Emit(0, KindStallCensus, 0, 0, 0)
	b.Emit(0, KindEpoch, -1, 1, 0)
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want only the masked-in kind", b.Len())
	}
	if !b.Enabled(KindEpoch) || b.Enabled(KindWarpIssue) {
		t.Fatal("Enabled disagrees with the mask")
	}
}

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	b.Emit(0, KindEpoch, -1, 0, 0)
	b.Reset()
	if b.Len() != 0 || b.Dropped() != 0 || b.Mask() != 0 || b.Events() != nil || b.Enabled(KindEpoch) {
		t.Fatal("nil bus must behave as permanently disabled")
	}
}

func TestBusReset(t *testing.T) {
	b := NewBus(2, MaskAll)
	for i := int64(0); i < 5; i++ {
		b.Emit(i, KindEpoch, -1, i, 0)
	}
	b.Reset()
	if b.Len() != 0 || b.Dropped() != 0 {
		t.Fatal("Reset must clear events and the drop counter")
	}
	b.Emit(9, KindEpoch, -1, 9, 0)
	if ev := b.Events(); len(ev) != 1 || ev[0].A != 9 {
		t.Fatalf("bus unusable after Reset: %+v", ev)
	}
}

// TestDisabledEmitIsAllocationFree is the self-overhead guarantee: simulator
// components keep probes permanently wired, so the disabled path must never
// allocate.
func TestDisabledEmitIsAllocationFree(t *testing.T) {
	var nilBus *Bus
	if n := testing.AllocsPerRun(1000, func() {
		nilBus.Emit(42, KindWarpIssue, 3, 7, 1)
	}); n != 0 {
		t.Errorf("nil-bus Emit allocates %.1f per op", n)
	}
	masked := NewBus(16, MaskOf(KindEpoch))
	if n := testing.AllocsPerRun(1000, func() {
		masked.Emit(42, KindWarpIssue, 3, 7, 1)
	}); n != 0 {
		t.Errorf("masked-out Emit allocates %.1f per op", n)
	}
	enabled := NewBus(16, MaskAll)
	if n := testing.AllocsPerRun(1000, func() {
		enabled.Emit(42, KindWarpIssue, 3, 7, 1)
	}); n != 0 {
		t.Errorf("enabled Emit allocates %.1f per op (ring writes must not allocate)", n)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(numKinds).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}

func BenchmarkEmitDisabledNil(b *testing.B) {
	var bus *Bus
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(int64(i), KindWarpIssue, 3, 7, 1)
	}
}

func BenchmarkEmitDisabledMasked(b *testing.B) {
	bus := NewBus(1<<10, MaskOf(KindEpoch))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(int64(i), KindWarpIssue, 3, 7, 1)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	bus := NewBus(1<<10, MaskAll)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(int64(i), KindWarpIssue, 3, 7, 1)
	}
}

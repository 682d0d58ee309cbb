package events

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	q.PopReady(100, func(int) { t.Fatal("PopReady delivered from empty queue") })
}

func TestTimeOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	var got []string
	q.PopReady(100, func(s string) { got = append(got, s) })
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", got)
	}
}

func TestPopReadyRespectsNow(t *testing.T) {
	var q Queue[int]
	q.Push(5, 1)
	q.Push(15, 2)
	var got []int
	q.PopReady(10, func(v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if q.Len() != 1 {
		t.Fatalf("remaining = %d, want 1", q.Len())
	}
	q.PopReady(14, func(v int) { t.Fatalf("PopReady(14) delivered %d, due at 15", v) })
	q.PopReady(15, func(v int) { got = append(got, v) })
	if len(got) != 2 || got[1] != 2 || q.Len() != 0 {
		t.Fatalf("got %v with %d left, want [1 2] and none", got, q.Len())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(42, i)
	}
	var got []int
	q.PopReady(42, func(v int) { got = append(got, v) })
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v, want insertion order", got)
		}
	}
}

func TestReset(t *testing.T) {
	var q Queue[int]
	q.Push(1, 1)
	q.Push(2, 2)
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset left events behind")
	}
	q.Push(5, 7)
	q.PopReady(4, func(v int) { t.Fatalf("PopReady(4) after reset delivered %d", v) })
	var got []int
	q.PopReady(5, func(v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("PopReady(5) after reset = %v, want [7]", got)
	}
}

// Property: popping everything returns items sorted by timestamp.
func TestQuickHeapOrder(t *testing.T) {
	f := func(times []int64) bool {
		var q Queue[int64]
		for _, at := range times {
			q.Push(at, at)
		}
		var got []int64
		q.PopReady(math.MaxInt64, func(v int64) { got = append(got, v) })
		if len(got) != len(times) || q.Len() != 0 {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueueMatchesStableSort checks the ring against a stable sort by
// timestamp: PopReady calls interleave with pushes that are in order, out of
// order and at equal times, and each call must deliver exactly the oracle's
// due prefix in the oracle's order. Hundreds of entries pass through, so
// compaction of the popped prefix is reached with entries still pending.
func TestQueueMatchesStableSort(t *testing.T) {
	type item struct {
		at int64
		id int
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := lcg(seed)
		var q Queue[int]
		var oracle []item // pending, in push order
		now := int64(0)
		compacted := false
		for id := 0; id < 600; id++ {
			var at int64
			switch r.intn(4) {
			case 0: // in order, the common case
				at = now + 20 + r.intn(8)
			case 1: // equal times: insertion order must hold
				at = now + 24
			case 2: // out of order, earlier than recent pushes
				at = now + r.intn(20)
			default: // already due
				at = now - r.intn(5)
			}
			q.Push(at, id)
			oracle = append(oracle, item{at, id})
			if r.intn(3) != 0 {
				continue
			}
			now += r.intn(12)
			sort.SliceStable(oracle, func(i, j int) bool { return oracle[i].at < oracle[j].at })
			var want []int
			for len(oracle) > 0 && oracle[0].at <= now {
				want = append(want, oracle[0].id)
				oracle = oracle[1:]
			}
			var got []int
			q.PopReady(now, func(v int) { got = append(got, v) })
			if len(got) != len(want) {
				t.Fatalf("seed %d: PopReady(%d) delivered %v, want %v", seed, now, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: PopReady(%d) delivered %v, want %v", seed, now, got, want)
				}
			}
			if q.Len() != len(oracle) {
				t.Fatalf("seed %d: Len %d after PopReady(%d), want %d", seed, q.Len(), now, len(oracle))
			}
			// Popping advances head, so a zero head after a delivery that
			// left entries pending means the ring compacted them down.
			compacted = compacted || (len(got) > 0 && q.head == 0 && q.Len() > 0)
		}
		if !compacted {
			t.Fatalf("seed %d: compaction of a non-empty ring never reached", seed)
		}
	}
}

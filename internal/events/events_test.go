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

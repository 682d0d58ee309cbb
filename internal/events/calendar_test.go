package events

import (
	"sort"
	"testing"
)

// lcg is a deterministic pseudo-random source so the adversarial patterns are
// reproducible without seeding from the clock.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func (r *lcg) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// drain collects deliveries from one PopReady call as a sorted multiset —
// the calendar's within-bucket insertion order is documented to differ from
// Queue's timestamp order, but the delivered set per call must match.
func drainCalendar(c *Calendar[int], now int64) []int {
	var got []int
	c.PopReady(now, func(v int) { got = append(got, v) })
	sort.Ints(got)
	return got
}

func drainQueue(q *Queue[int], now int64) []int {
	var got []int
	q.PopReady(now, func(v int) { got = append(got, v) })
	sort.Ints(got)
	return got
}

func equalSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCalendarMatchesQueue drives a Calendar and a Queue with identical
// adversarial push/pop schedules and asserts the delivered multiset of every
// PopReady call, plus Len, always agree.
func TestCalendarMatchesQueue(t *testing.T) {
	patterns := []struct {
		name string
		run  func(t *testing.T, push func(at int64, v int), step func(now int64))
	}{
		{"dense-same-cycle", func(t *testing.T, push func(int64, int), step func(int64)) {
			// Many entries landing in one bucket, delivered at once.
			for i := 0; i < 100; i++ {
				push(5000, i)
			}
			step(4999)
			step(5000)
		}},
		{"bucket-boundary-straddle", func(t *testing.T, push func(int64, int), step func(int64)) {
			// Entries on both sides of a bucket edge; PopReady lands inside
			// the boundary bucket so it must filter, not flush.
			push(1999, 1)
			push(2000, 2)
			push(2001, 3)
			push(2500, 4)
			step(2000)
			step(2400)
			step(3000)
		}},
		{"far-future-overflow", func(t *testing.T, push func(int64, int), step func(int64)) {
			// Horizon overflow: entries far beyond the wheel span.
			push(1_000_000, 1)
			push(500, 2)
			push(2_000_000, 3)
			step(500)
			step(999_999)
			step(1_000_000)
			step(3_000_000)
		}},
		{"cursor-jump", func(t *testing.T, push func(int64, int), step func(int64)) {
			// A huge now-jump wrapping the wheel several times over.
			for i := 0; i < 50; i++ {
				push(int64(1000+i*700), i)
			}
			step(99)
			step(10_000_000)
		}},
		{"late-push", func(t *testing.T, push func(int64, int), step func(int64)) {
			// Push at a time the cursor already passed: must still deliver
			// at the next PopReady.
			push(9000, 1)
			step(9000)
			push(8000, 2) // late: 8000 < cursor
			step(9001)
		}},
		{"idle-gap", func(t *testing.T, push func(int64, int), step func(int64)) {
			// The wheel is busy, drains, and is not popped for several wheel
			// spans (an SM with no block). It resumes as an SM does: one pop
			// moves the stale cursor, then near-term pushes land in buckets
			// that wrap onto the ones the cursor left behind.
			for i := 0; i < 20; i++ {
				push(int64(1000+i*300), i)
				step(int64(1000 + i*250))
			}
			step(8000)
			resume := int64(8000 + 5*256*1000 + 640)
			push(resume+500, 99) // before the first pop after the gap
			step(resume)
			for i := 0; i < 20; i++ {
				push(resume+int64(i%7)*1000, 100+i)
				push(resume+int64(i%3)*1000+999, 200+i)
			}
			for now := resume; now < resume+12_000; now += 1000 {
				step(now)
			}
		}},
		{"interleaved-random", func(t *testing.T, push func(int64, int), step func(int64)) {
			r := lcg(42)
			now := int64(0)
			for i := 0; i < 5000; i++ {
				switch r.intn(3) {
				case 0:
					push(now+r.intn(40_000), i)
				case 1:
					// Cluster on exact cycle boundaries (the SM's pattern).
					push(now+1000*r.intn(64), i)
				default:
					now += r.intn(2500)
					step(now)
				}
			}
			step(now + 100_000_000)
		}},
	}

	for _, pat := range patterns {
		t.Run(pat.name, func(t *testing.T) {
			cal := NewCalendar[int](1000, 256)
			var q Queue[int]
			push := func(at int64, v int) {
				cal.Push(at, v)
				q.Push(at, v)
			}
			step := func(now int64) {
				got, want := drainCalendar(cal, now), drainQueue(&q, now)
				if !equalSets(got, want) {
					t.Fatalf("PopReady(%d): calendar delivered %v, queue %v", now, got, want)
				}
				if cal.Len() != q.Len() {
					t.Fatalf("after PopReady(%d): calendar Len %d, queue Len %d", now, cal.Len(), q.Len())
				}
			}
			pat.run(t, push, step)
			if cal.Len() != 0 || q.Len() != 0 {
				// Drain the tail so every pattern checks full delivery.
				step(1 << 40)
			}
			if cal.Len() != 0 {
				t.Fatalf("calendar retains %d entries after final drain", cal.Len())
			}
		})
	}
}

// TestCalendarReset verifies Reset rewinds the cursor and drops wheel and
// overflow contents.
func TestCalendarReset(t *testing.T) {
	cal := NewCalendar[int](1000, 8)
	cal.Push(500, 1)
	cal.Push(1_000_000, 2) // overflow
	cal.PopReady(500, func(int) {})
	cal.Reset()
	if cal.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", cal.Len())
	}
	// The cursor must be rewound: early timestamps work again.
	cal.Push(100, 3)
	var got []int
	cal.PopReady(100, func(v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("post-Reset delivery = %v, want [3]", got)
	}
}

// TestCalendarWithinBucketInsertionOrder pins the documented ordering
// contract: same-bucket entries deliver in insertion order even when their
// timestamps are inverted.
func TestCalendarWithinBucketInsertionOrder(t *testing.T) {
	cal := NewCalendar[int](1000, 8)
	cal.Push(1700, 1)
	cal.Push(1200, 2)
	var got []int
	cal.PopReady(2000, func(v int) { got = append(got, v) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2] (insertion order)", got)
	}
}

package events

// Calendar is a bucketed timer wheel specialised for the SM's wake queues:
// pushes cluster a bounded horizon ahead of a monotonically advancing cursor
// (cache-hit latencies, DRAM returns, dependency gaps), and PopReady is called
// once per cycle with a non-decreasing `now`. Delivering a cycle's expirations
// costs O(delivered), whatever the number of pending entries.
//
// Ordering contract: PopReady delivers whole buckets in time-bucket order and
// entries within a bucket in insertion order — NOT globally sorted by
// timestamp like Queue. Callers must have commutative handlers for same-cycle
// deliveries (the SM's wake and gap handlers are: each only decrements an
// independent per-warp counter or clears an independent bit). Callers that
// need strict (time, insertion) order keep using Queue.
//
// Entries scheduled beyond the wheel's horizon go to an overflow Queue and
// pop from there when due; they are never migrated into the wheel.
type Calendar[T any] struct {
	buckets [][]calEntry[T]
	mask    int64
	width   int64
	// base rebases bucket numbering to the first timestamp the wheel sees
	// after a Reset (< 0 while unset). Bucket numbers — and therefore the
	// physical bucket an entry lands in — depend only on time elapsed since
	// the run started, not on the machine's absolute clock, so identical
	// back-to-back runs reuse exactly the same bucket capacities and the
	// wheel stays allocation-free in steady state. Delivery semantics are
	// unchanged: PopReady(now) always delivers exactly the entries with
	// at <= now, whatever the bucket boundaries.
	base int64
	// cur is the rebased bucket number of the cursor: every bucket below it
	// has been fully delivered.
	cur int64
	// wheelN counts entries resident in the wheel (excludes overflow).
	wheelN   int
	overflow Queue[T]
}

type calEntry[T any] struct {
	at  int64
	val T
}

// NewCalendar builds a wheel of `buckets` buckets (rounded up to a power of
// two, minimum 8) each spanning `width` time units. width must be positive.
func NewCalendar[T any](width int64, buckets int) *Calendar[T] {
	if width <= 0 {
		panic("events: calendar bucket width must be positive")
	}
	n := 8
	for n < buckets {
		n <<= 1
	}
	return &Calendar[T]{
		buckets: make([][]calEntry[T], n),
		mask:    int64(n - 1),
		width:   width,
		base:    -1,
	}
}

// Len returns the number of pending events.
func (c *Calendar[T]) Len() int { return c.wheelN + c.overflow.Len() }

// bucketOf maps a timestamp to its rebased bucket number, pinning the base
// on first use. Timestamps are non-negative simulation times; a timestamp
// below the base (only possible for a late push) maps to a negative bucket,
// which Push clamps to the cursor like any other late push.
func (c *Calendar[T]) bucketOf(at int64) int64 {
	if c.base < 0 {
		c.base = at
	}
	return (at - c.base) / c.width
}

// Push schedules v at time at. Late pushes (a bucket the cursor has passed)
// clamp into the cursor bucket so the entry still delivers at the next
// PopReady whose now >= at.
func (c *Calendar[T]) Push(at int64, v T) {
	b := c.bucketOf(at)
	if b < c.cur {
		b = c.cur
	}
	if b-c.cur >= int64(len(c.buckets)) {
		c.overflow.Push(at, v)
		return
	}
	idx := b & c.mask
	c.buckets[idx] = append(c.buckets[idx], calEntry[T]{at: at, val: v})
	c.wheelN++
}

// PopReady delivers every event with timestamp <= now to f: whole past
// buckets in wheel order (insertion order within each), then the boundary
// bucket filtered in place, then any due overflow entries. now must be
// non-decreasing across calls.
func (c *Calendar[T]) PopReady(now int64, f func(T)) {
	target := c.bucketOf(now)
	if c.wheelN > 0 {
		// Deliver whole buckets strictly below the boundary bucket. When the
		// cursor jump exceeds the wheel span every resident entry is due, so
		// one pass over the wheel suffices.
		span := int64(len(c.buckets))
		jump := target - c.cur
		if jump > span {
			jump = span
		}
		for off := int64(0); off < jump && c.wheelN > 0; off++ {
			idx := (c.cur + off) & c.mask
			bucket := c.buckets[idx]
			if len(bucket) == 0 {
				continue
			}
			c.wheelN -= len(bucket)
			c.buckets[idx] = bucket[:0]
			for i := range bucket {
				f(bucket[i].val)
				bucket[i] = calEntry[T]{}
			}
		}
	}
	if target > c.cur {
		c.cur = target
	}
	// Boundary bucket: deliver entries with at <= now, keep the rest.
	idx := c.cur & c.mask
	if bucket := c.buckets[idx]; len(bucket) > 0 {
		kept := bucket[:0]
		for i := range bucket {
			if bucket[i].at <= now {
				c.wheelN--
				f(bucket[i].val)
			} else {
				kept = append(kept, bucket[i])
			}
		}
		for i := len(kept); i < len(bucket); i++ {
			bucket[i] = calEntry[T]{}
		}
		c.buckets[idx] = kept
	}
	c.overflow.PopReady(now, f)
}

// Reset drops all pending events and rewinds the cursor.
func (c *Calendar[T]) Reset() {
	for i := range c.buckets {
		bucket := c.buckets[i]
		for j := range bucket {
			bucket[j] = calEntry[T]{}
		}
		c.buckets[i] = bucket[:0]
	}
	c.base = -1
	c.cur = 0
	c.wheelN = 0
	c.overflow.Reset()
}

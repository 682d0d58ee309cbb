// Package events provides a small time-ordered event queue used by the SM
// model to schedule warp wake-ups (ALU dependency expiry, load-data returns).
// It is a binary min-heap keyed by an int64 timestamp; entries with equal
// timestamps pop in insertion order so simulations stay deterministic.
package events

// Queue is a min-heap of timed values. The zero value is ready to use.
type Queue[T any] struct {
	items []entry[T]
	seq   uint64
}

type entry[T any] struct {
	at  int64
	seq uint64
	val T
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push schedules v at time at.
func (q *Queue[T]) Push(at int64, v T) {
	q.items = append(q.items, entry[T]{at: at, seq: q.seq, val: v})
	q.seq++
	q.up(len(q.items) - 1)
}

// PopReady delivers every event with timestamp <= now to f, in time order
// (ties in insertion order).
func (q *Queue[T]) PopReady(now int64, f func(T)) {
	for len(q.items) > 0 && q.items[0].at <= now {
		f(q.pop())
	}
}

// Reset drops all pending events.
func (q *Queue[T]) Reset() {
	q.items = q.items[:0]
	q.seq = 0
}

func (q *Queue[T]) pop() T {
	top := q.items[0].val
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	var zero entry[T]
	q.items[last] = zero
	q.items = q.items[:last]
	if len(q.items) > 0 {
		q.down(0)
	}
	return top
}

func (q *Queue[T]) less(i, j int) bool {
	if q.items[i].at != q.items[j].at {
		return q.items[i].at < q.items[j].at
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// Package events provides the simulator's two time-ordered event queues.
// Queue delivers in strict (time, insertion) order; the memory system uses
// it to delay L2 hit replies, whose delivery order decides the L1 fill
// order. Calendar is a bucketed timer wheel for the SM's wake-up queues,
// whose handlers tolerate any order within a bucket.
package events

// Queue is a time-ordered ring of timed values: items[head:] is sorted by
// timestamp, equal timestamps in insertion order. Pushes usually arrive in
// time order, so Push is an append plus a short (usually empty) shift, and
// PopReady reads from the head. The zero value is ready to use.
type Queue[T any] struct {
	items []entry[T]
	head  int
}

type entry[T any] struct {
	at  int64
	val T
}

// compactAt is the number of popped entries the ring lets build up at the
// front of its slice before moving the pending ones down. Popping the queue
// empty rewinds it for free, so this only bounds the dead prefix of a queue
// that never drains.
const compactAt = 64

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push schedules v at time at. It shifts the new entry back past every
// pending entry with a later timestamp, so equal timestamps keep insertion
// order.
func (q *Queue[T]) Push(at int64, v T) {
	q.items = append(q.items, entry[T]{})
	i := len(q.items) - 1
	for ; i > q.head && q.items[i-1].at > at; i-- {
		q.items[i] = q.items[i-1]
	}
	q.items[i] = entry[T]{at: at, val: v}
}

// PopReady delivers every event with timestamp <= now to f, in time order
// (ties in insertion order). f may Push.
func (q *Queue[T]) PopReady(now int64, f func(T)) {
	for q.head < len(q.items) && q.items[q.head].at <= now {
		q.head++
		f(q.items[q.head-1].val)
	}
	if q.head > 0 && (q.head == len(q.items) || q.head >= compactAt) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
}

// Reset drops all pending events.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items = q.items[:0]
	q.head = 0
}

// Package phtest exercises the probehygiene analyzer against a miniature
// copy of the telemetry bus: nil-safe methods, allocation-free emit paths
// and constant event kinds.
package phtest

import "fmt"

// Kind is the event type.
type Kind uint8

// The two kinds of this miniature bus.
const (
	KindA Kind = iota
	KindB
)

// Event is one record.
type Event struct {
	A int64
	K Kind
}

// Bus is a miniature probe bus. A nil *Bus is a valid, permanently disabled
// bus (eqlint:nilsafe): every pointer-receiver method must open with a nil
// guard.
type Bus struct {
	mask uint64
	buf  []Event
	head int
}

// Enabled reports whether kind k is recorded.
func (b *Bus) Enabled(k Kind) bool {
	return b != nil && b.mask&(1<<k) != 0
}

// Emit records one event in place; the buffer is preallocated.
func (b *Bus) Emit(t int64, k Kind, a int64) {
	if b == nil || b.mask&(1<<k) == 0 {
		return
	}
	e := &b.buf[b.head]
	e.A, e.K = a, k
}

// emitSloppy grows its buffer on the emit path.
//
//eqlint:emitpath
func (b *Bus) emitSloppy(k Kind, a int64) {
	if b == nil {
		return
	}
	b.buf = append(b.buf, Event{A: a, K: k}) // want "builtin append allocates" "composite literal allocates"
}

// emitFmt formats on the emit path.
//
//eqlint:emitpath
func (b *Bus) emitFmt(k Kind) {
	if b == nil {
		return
	}
	fmt.Println(k) // want "fmt.Println allocates"
}

// emitLabels writes a map on the emit path.
//
//eqlint:emitpath
func (b *Bus) emitLabels(labels map[string]int64, k Kind, a int64) {
	if b == nil {
		return
	}
	labels["last"] = a // want "map write allocates"
}

func (b *Bus) Len() int { // want "must begin with a b == nil guard"
	return len(b.buf)
}

// Reset guards with an early return.
func (b *Bus) Reset() {
	if b == nil {
		return
	}
	b.head = 0
}

func use(b *Bus, k Kind, x int) {
	b.Emit(0, KindA, 1)   // ok: constant kind
	b.Emit(0, k, 1)       // want "Kind constant"
	b.Emit(0, Kind(x), 1) // want "Kind constant"
}

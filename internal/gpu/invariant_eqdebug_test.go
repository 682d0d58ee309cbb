//go:build eqdebug

package gpu

import (
	"strings"
	"testing"

	"equalizer/internal/icnt"
)

// TestInvariantsCatchMissTrackingCorruption corrupts the L2 waiter lists and
// the fresh-miss memo directly and checks that verifyInvariants panics.
func TestInvariantsCatchMissTrackingCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *Machine)
		want    string
	}{
		{"l2 waiters", func(m *Machine) {
			m.l2Waiters[0] = append(m.l2Waiters[0], icnt.Request{SM: 1, Line: 0x80})
		}, "L2 waiter leak"},
		{"fresh-miss memo", func(m *Machine) {
			m.drainRequest(icnt.Request{SM: 0, Line: 0x80})
			m.freshMiss[4] = portLine{line: 0x80, valid: true}
		}, "stale fresh-miss memo on port 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t)
			tc.corrupt(m)
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				m.verifyInvariants()
			}()
			msg, ok := recovered.(string)
			if !ok {
				t.Fatalf("no panic after corrupting the %s", tc.name)
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q does not mention %q", msg, tc.want)
			}
		})
	}
}

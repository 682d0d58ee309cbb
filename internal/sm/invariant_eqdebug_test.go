//go:build eqdebug

package sm

import (
	"strings"
	"testing"

	"equalizer/internal/config"
)

// TestInvariantsCatchCorruption corrupts cached census state directly and
// checks that the eqdebug layer panics — proving the checks are live, not
// vacuously true.
func TestInvariantsCatchCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(s *SM)
		want    string
	}{
		{"census", func(s *SM) {
			s.snap.Active = s.snap.Waiting + 1
			s.snap.Issued = 0
			s.snap.XALU = 0
			s.snap.XMEM = 0
			s.snap.Others = 0
		}, "census leak"},
		{"pausing", func(s *SM) { s.activeBlocks, s.residentBlocks = 0, 1 }, "pausing drift"},
		{"warp slots", func(s *SM) { s.freeWarpSlots = s.freeWarpSlots[:len(s.freeWarpSlots)-1] }, "warp-slot leak"},
		{"l1 waiters", func(s *SM) { s.l1Waiters[0] = append(s.l1Waiters[0], 5) }, "L1 waiter leak"},
		// An SM without a block cannot have a miss in flight; the idle
		// Step relies on it, so this case steps once to reach the check.
		{"idle miss", func(s *SM) {
			s.l1.Access(0)
			s.addWaiter(5)
			s.Step(period, period)
		}, "idle with L1 misses"},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := New(config.Default(), 0)
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				tc.corrupt(s)
				s.verifyInvariants()
				s.recountInvariants()
			}()
			msg, ok := recovered.(string)
			if !ok {
				t.Fatalf("no panic after corrupting %s", tc.name)
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q does not mention %q", msg, tc.want)
			}
		})
	}
}

// TestInvariantsHoldOnFreshSM checks a freshly built SM satisfies every
// conservation law before any cycle runs.
func TestInvariantsHoldOnFreshSM(t *testing.T) {
	s := New(config.Default(), 0)
	s.verifyInvariants()
	s.recountInvariants()
}

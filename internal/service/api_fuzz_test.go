package service

import (
	"encoding/json"
	"testing"
)

// FuzzSweepSpec feeds arbitrary bodies through the /v1/sweep decoder. No
// body may panic the count or the expansion, and whenever the expansion
// succeeds it yields exactly the counted number of cells, so the 413 check
// that handleSweep makes on the count, before expanding, sees the true size.
// Expansion is skipped above 4 096 cells to keep each input cheap. The seed
// corpus in testdata/fuzz holds the bodies the service tests post, except
// the 33 KB 3 000 × 3 000 sweep: mutating an input that large stalls the
// fuzzer.
func FuzzSweepSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec SweepSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return
		}
		n := spec.count()
		if n < 0 {
			t.Fatalf("%q: count = %d", body, n)
		}
		if n > 4096 {
			return
		}
		cs, err := spec.cells()
		if err == nil && len(cs) != n {
			t.Fatalf("%q: count = %d but cells() expanded %d", body, n, len(cs))
		}
	})
}

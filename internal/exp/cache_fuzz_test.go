package exp

import (
	"context"
	"errors"
	"os"
	"testing"

	"equalizer/internal/exp/runcache"
	"equalizer/internal/kernels"
)

// FuzzCacheEntry stores arbitrary bytes as the cache entry of one run (the
// twelve-invocation bfs-2 baseline) and requests that run with every
// simulation failing fast. No input may panic, and each must end one of
// two ways: a cache hit whose Totals are plausible for the kernel, or the
// injected fault after exactly one simulation attempt. The seed corpus in
// testdata/fuzz holds a current entry (a cache hit), an entry from before
// the census was stored (real-entry, now implausible), a truncated one and
// the degenerate bodies of TestDegenerateCacheEntryResimulated.
func FuzzCacheEntry(f *testing.F) {
	k, err := kernels.ByName("bfs-2")
	if err != nil {
		f.Fatal(err)
	}
	cache, err := runcache.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	fault := errors.New("simulation disabled")
	f.Fuzz(func(t *testing.T, entry []byte) {
		h := New(Options{GridScale: 0.05, Parallelism: 1, Cache: cache})
		if err := os.WriteFile(cache.Path(h.cacheKey(k.Name, Baseline())), entry, 0o644); err != nil {
			t.Fatal(err)
		}
		attempts := 0
		h.simFault = func() error { attempts++; return fault }
		got, src, err := h.RunCtx(context.Background(), k, Baseline())
		switch {
		case err == nil && src == SourceCache && attempts == 0:
			if !got.plausible(h.scaled(k).Invocations) {
				t.Fatalf("%q: served implausible Totals %+v", entry, got)
			}
		case errors.Is(err, fault) && attempts == 1:
		default:
			t.Fatalf("%q: RunCtx = (%q, %v) after %d attempts", entry, src, err, attempts)
		}
	})
}

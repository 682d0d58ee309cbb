// Package cache implements the set-associative caches of the simulated GPU:
// the per-SM L1 data cache (64 sets, 4 ways, 128-byte lines on the baseline
// Fermi) and the shared L2. The model is tag-only — no data payloads are
// carried — because the simulator needs hit/miss behaviour, LRU replacement
// and miss-status-holding-register (MSHR) back-pressure, not values.
package cache

import (
	"fmt"

	"equalizer/internal/config"
	"equalizer/internal/telemetry"
)

// Addr is a byte address in the simulated global memory space.
type Addr uint64

// AccessResult classifies the outcome of a cache probe.
type AccessResult int

const (
	// Hit means the line was present.
	Hit AccessResult = iota
	// Miss means the line was absent and a new MSHR was allocated; the
	// caller must forward the request downstream and later call Fill.
	Miss
	// MergedMiss means the line was absent but an MSHR for it already
	// exists; the request piggybacks on the outstanding fill and nothing
	// must be forwarded.
	MergedMiss
	// Reject means the cache cannot accept the access because all MSHRs are
	// busy; the requester must stall and retry. This is the back-pressure
	// signal that ultimately produces Xmem warps.
	Reject
)

// String returns the result name.
func (r AccessResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MergedMiss:
		return "merged"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("AccessResult(%d)", int(r))
	}
}

type line struct {
	tag   uint64
	valid bool
	// lru is a per-set logical timestamp; larger = more recently used.
	lru uint64
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Merged    uint64
	Rejects   uint64
	Fills     uint64
	Evictions uint64
}

// HitRate returns hits/accesses counting merged misses as misses, or zero
// when the cache was never accessed.
func (s Stats) HitRate() float64 {
	demand := s.Hits + s.Misses + s.Merged
	if demand == 0 {
		return 0
	}
	return float64(s.Hits) / float64(demand)
}

// Cache is a blocking-free set-associative cache with MSHR miss tracking.
// It is not safe for concurrent use; the simulator is single-threaded per
// deterministic design.
type Cache struct {
	geom      config.Cache
	lineShift uint
	setMask   uint64

	sets  [][]line
	clock uint64

	// mshrs maps outstanding line addresses to the number of merged
	// requests waiting on the fill.
	mshrs map[Addr]int

	lastVictim    Addr
	hasLastVictim bool

	// Telemetry: probe is nil (free) until SetProbe wires the cache to a
	// bus; accessKind/evictKind distinguish the L1 and L2 instances and
	// probeNow supplies the owner's current simulation time.
	probe      *telemetry.Bus
	accessKind telemetry.Kind
	evictKind  telemetry.Kind
	probeSrc   int16
	probeNow   func() int64

	stats Stats
}

// New builds a cache from its geometry. The set count and line size must be
// powers of two.
func New(geom config.Cache) (*Cache, error) {
	if geom.Sets <= 0 || geom.Ways <= 0 || geom.LineBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %+v", geom)
	}
	if geom.Sets&(geom.Sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", geom.Sets)
	}
	if geom.LineBytes&(geom.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d is not a power of two", geom.LineBytes)
	}
	if geom.MSHRs <= 0 {
		return nil, fmt.Errorf("cache: MSHR count %d must be positive", geom.MSHRs)
	}
	c := &Cache{
		geom:    geom,
		setMask: uint64(geom.Sets - 1),
		mshrs:   make(map[Addr]int, geom.MSHRs),
	}
	for geom.LineBytes>>c.lineShift > 1 {
		c.lineShift++
	}
	c.sets = make([][]line, geom.Sets)
	backing := make([]line, geom.Sets*geom.Ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:geom.Ways], backing[geom.Ways:]
	}
	return c, nil
}

// MustNew is New but panics on error; for configurations known statically.
func MustNew(geom config.Cache) *Cache {
	c, err := New(geom)
	if err != nil {
		panic(err)
	}
	return c
}

// SetProbe wires the cache to a telemetry bus: every Access emits an event
// of kind access (payload: line address, AccessResult ordinal) and every
// evicting Fill emits kind evict (payload: victim line). src labels the
// emitting unit (the SM index for an L1, -1 for the shared L2) and now
// supplies the owner's current simulation time in picoseconds. A nil bus
// detaches the probe.
func (c *Cache) SetProbe(b *telemetry.Bus, access, evict telemetry.Kind, src int16, now func() int64) {
	c.probe, c.accessKind, c.evictKind, c.probeSrc, c.probeNow = b, access, evict, src, now
}

// LineAddr returns the line-aligned address containing a.
func (c *Cache) LineAddr(a Addr) Addr { return a &^ (Addr(c.geom.LineBytes) - 1) }

func (c *Cache) setIndex(a Addr) uint64 { return (uint64(a) >> c.lineShift) & c.setMask }
func (c *Cache) tag(a Addr) uint64      { return uint64(a) >> c.lineShift }

// Access probes the cache for the line containing a. On Miss the caller owns
// forwarding the fill request downstream and must eventually call Fill with
// the same address. Writes are modelled identically to reads (write-allocate,
// no writeback traffic) since Equalizer's behaviour depends on latency and
// bandwidth pressure, not dirty-line movement.
func (c *Cache) Access(a Addr) AccessResult {
	res := c.access(a)
	if c.probe.Enabled(c.accessKind) {
		c.probe.Emit(c.probeNow(), c.accessKind, c.probeSrc, int64(c.LineAddr(a)), int64(res))
	}
	return res
}

func (c *Cache) access(a Addr) AccessResult {
	c.stats.Accesses++
	la := c.LineAddr(a)
	set := c.sets[c.setIndex(a)]
	t := c.tag(a)
	c.clock++
	for i := range set {
		if set[i].valid && set[i].tag == t {
			set[i].lru = c.clock
			c.stats.Hits++
			return Hit
		}
	}
	if n, ok := c.mshrs[la]; ok {
		c.mshrs[la] = n + 1
		c.stats.Merged++
		return MergedMiss
	}
	if len(c.mshrs) >= c.geom.MSHRs {
		c.stats.Rejects++
		// Rejected probes do not count as demand accesses for hit-rate
		// purposes; the warp retries later.
		c.stats.Accesses--
		return Reject
	}
	c.mshrs[la] = 1
	c.stats.Misses++
	return Miss
}

// Contains reports whether the line holding a is resident, without touching
// LRU state or statistics.
func (c *Cache) Contains(a Addr) bool {
	set := c.sets[c.setIndex(a)]
	t := c.tag(a)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			return true
		}
	}
	return false
}

// Fill completes an outstanding miss: it releases the MSHR for the line and
// installs the line, evicting the LRU victim if the set is full. It returns
// the number of requests that were waiting on the fill (>= 1). Calling Fill
// for a line with no outstanding MSHR is a programming error.
func (c *Cache) Fill(a Addr) int {
	la := c.LineAddr(a)
	waiters, ok := c.mshrs[la]
	if !ok {
		panic(fmt.Sprintf("cache: Fill(%#x) without outstanding miss", uint64(a)))
	}
	delete(c.mshrs, la)
	c.stats.Fills++

	set := c.sets[c.setIndex(a)]
	t := c.tag(a)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == t {
			// Already present (e.g. a racing fill path); just refresh.
			set[i].lru = c.clock
			return waiters
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		c.stats.Evictions++
		c.lastVictim = Addr(set[victim].tag << c.lineShift)
		c.hasLastVictim = true
		if c.probe.Enabled(c.evictKind) {
			c.probe.Emit(c.probeNow(), c.evictKind, c.probeSrc, int64(c.lastVictim), 0)
		}
	} else {
		c.hasLastVictim = false
	}
	c.clock++
	set[victim] = line{tag: t, valid: true, lru: c.clock}
	return waiters
}

// LastVictim returns the line evicted by the most recent Fill, and whether
// that Fill evicted anything. CCWS-style locality detectors use this to
// populate victim tag arrays.
func (c *Cache) LastVictim() (Addr, bool) { return c.lastVictim, c.hasLastVictim }

// MissPending reports whether an MSHR is already allocated for the line
// containing a (a new request for it would merge rather than consume a
// fresh MSHR or downstream slot).
func (c *Cache) MissPending(a Addr) bool {
	_, ok := c.mshrs[c.LineAddr(a)]
	return ok
}

// OutstandingMisses returns the number of busy MSHRs.
func (c *Cache) OutstandingMisses() int { return len(c.mshrs) }

// MSHRsFree reports whether at least one MSHR is available.
func (c *Cache) MSHRsFree() bool { return len(c.mshrs) < c.geom.MSHRs }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line and drops all MSHR state. Used between kernel
// invocations, matching the GPU's lack of cross-kernel L1 coherence.
func (c *Cache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	// Clear in place instead of reallocating: per-invocation flushes of 16
	// caches otherwise cost a fresh map each, and the retained buckets are
	// exactly the steady-state MSHR footprint.
	clear(c.mshrs)
}

// Geometry returns the configured geometry.
func (c *Cache) Geometry() config.Cache { return c.geom }

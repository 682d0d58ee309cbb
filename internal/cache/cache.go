// Package cache implements the set-associative caches of the simulated GPU:
// the per-SM L1 data cache (64 sets, 4 ways, 128-byte lines on the baseline
// Fermi) and the shared L2. The model is tag-only — no data payloads are
// carried — because the simulator needs hit/miss behaviour, LRU replacement
// and miss-status-holding-register (MSHR) back-pressure, not values.
package cache

import (
	"fmt"

	"equalizer/internal/config"
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

// mshr is one miss-status holding register: the outstanding line and the
// number of requests merged onto its fill. next links the entry into its
// bucket chain while busy and into the free list while idle (-1 ends both).
type mshr struct {
	line  Addr
	count int32
	next  int32
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

	// mshrs is the MSHR file, indexed by slot. Busy entries are chained per
	// bucket of a multiplicative hash of the line number (buckets holds each
	// chain's head, -1 when empty); idle entries are chained from free. The
	// hash, not the set index, picks the bucket: strided access patterns
	// park many pending lines in a few sets, and a set-indexed table
	// degenerates into long chains exactly when the miss path is busiest.
	mshrs       []mshr
	buckets     []int32
	bucketShift uint
	free        int32
	busy        int
	// slot is the entry the most recent Miss or MergedMiss used, or the most
	// recent Fill released.
	slot int

	lastVictim    Addr
	hasLastVictim bool

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
		geom:        geom,
		setMask:     uint64(geom.Sets - 1),
		mshrs:       make([]mshr, geom.MSHRs),
		bucketShift: 64,
	}
	for geom.LineBytes>>c.lineShift > 1 {
		c.lineShift++
	}
	// At least two buckets per MSHR keeps the expected chain length below
	// one entry even with every MSHR busy.
	for 1<<(64-c.bucketShift) < 2*geom.MSHRs {
		c.bucketShift--
	}
	c.buckets = make([]int32, 1<<(64-c.bucketShift))
	c.clearMSHRs()
	c.sets = make([][]line, geom.Sets)
	backing := make([]line, geom.Sets*geom.Ways)
	for i := range c.sets {
		c.sets[i], backing = backing[:geom.Ways], backing[geom.Ways:]
	}
	return c, nil
}

// clearMSHRs empties the MSHR file: every bucket chain ends at once and the
// free list runs through the entries in slot order.
func (c *Cache) clearMSHRs() {
	for i := range c.buckets {
		c.buckets[i] = -1
	}
	for i := range c.mshrs {
		c.mshrs[i] = mshr{next: int32(i + 1)}
	}
	c.mshrs[len(c.mshrs)-1].next = -1
	c.free = 0
	c.busy = 0
}

// bucket hashes a line address to its MSHR bucket (Fibonacci hashing of the
// line number: the top bits of the product mix every input bit).
func (c *Cache) bucket(la Addr) int {
	return int((uint64(la) >> c.lineShift) * 0x9E3779B97F4A7C15 >> c.bucketShift)
}

// findMSHR returns the busy entry tracking line la in bucket b, or -1.
func (c *Cache) findMSHR(la Addr, b int) int32 {
	i := c.buckets[b]
	for i >= 0 && c.mshrs[i].line != la {
		i = c.mshrs[i].next
	}
	return i
}

// MustNew is New but panics on error; for configurations known statically.
func MustNew(geom config.Cache) *Cache {
	c, err := New(geom)
	if err != nil {
		panic(err)
	}
	return c
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
	b := c.bucket(la)
	if i := c.findMSHR(la, b); i >= 0 {
		c.mshrs[i].count++
		c.slot = int(i)
		c.stats.Merged++
		return MergedMiss
	}
	if c.free < 0 {
		c.stats.Rejects++
		// Rejected probes do not count as demand accesses for hit-rate
		// purposes; the warp retries later.
		c.stats.Accesses--
		return Reject
	}
	i := c.free
	e := &c.mshrs[i]
	c.free = e.next
	*e = mshr{line: la, count: 1, next: c.buckets[b]}
	c.buckets[b] = i
	c.busy++
	c.slot = int(i)
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
// the number of requests that were waiting on the fill (>= 1); Slot then
// names the released MSHR. Calling Fill for a line with no outstanding MSHR
// is a programming error.
func (c *Cache) Fill(a Addr) int {
	la := c.LineAddr(a)
	b := c.bucket(la)
	prev, i := int32(-1), c.buckets[b]
	for i >= 0 && c.mshrs[i].line != la {
		prev, i = i, c.mshrs[i].next
	}
	if i < 0 {
		panic(fmt.Sprintf("cache: Fill(%#x) without outstanding miss", uint64(a)))
	}
	e := &c.mshrs[i]
	waiters := int(e.count)
	if prev < 0 {
		c.buckets[b] = e.next
	} else {
		c.mshrs[prev].next = e.next
	}
	*e = mshr{next: c.free}
	c.free = i
	c.busy--
	c.slot = int(i)
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

// Slot returns the MSHR slot, in [0, MSHRs), that the most recent Access
// returning Miss or MergedMiss used, or that the most recent Fill released.
// Busy slots are unique among outstanding misses, so callers can keep
// per-miss state in a slice indexed by slot instead of a map keyed by line.
// After a Hit or Reject it still names the earlier miss's slot.
func (c *Cache) Slot() int { return c.slot }

// MissPending reports whether an MSHR is already allocated for the line
// containing a (a new request for it would merge rather than consume a
// fresh MSHR or downstream slot).
func (c *Cache) MissPending(a Addr) bool {
	la := c.LineAddr(a)
	return c.findMSHR(la, c.bucket(la)) >= 0
}

// OutstandingMisses returns the number of busy MSHRs.
func (c *Cache) OutstandingMisses() int { return c.busy }

// MSHRsFree reports whether at least one MSHR is available.
func (c *Cache) MSHRsFree() bool { return c.free >= 0 }

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
	c.clearMSHRs()
}

// Geometry returns the configured geometry.
func (c *Cache) Geometry() config.Cache { return c.geom }

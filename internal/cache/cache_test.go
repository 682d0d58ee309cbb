package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"equalizer/internal/config"
)

func smallGeom() config.Cache {
	return config.Cache{Sets: 4, Ways: 2, LineBytes: 64, MSHRs: 4}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := []config.Cache{
		{Sets: 0, Ways: 1, LineBytes: 64, MSHRs: 1},
		{Sets: 3, Ways: 1, LineBytes: 64, MSHRs: 1},
		{Sets: 4, Ways: 0, LineBytes: 64, MSHRs: 1},
		{Sets: 4, Ways: 1, LineBytes: 48, MSHRs: 1},
		{Sets: 4, Ways: 1, LineBytes: 64, MSHRs: 0},
	}
	for i, g := range bad {
		if _, err := New(g); err == nil {
			t.Errorf("case %d: New accepted invalid geometry %+v", i, g)
		}
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := MustNew(smallGeom())
	if r := c.Access(0x100); r != Miss {
		t.Fatalf("first access = %v, want miss", r)
	}
	if r := c.Access(0x104); r != MergedMiss {
		t.Fatalf("same-line access during miss = %v, want merged", r)
	}
	if w := c.Fill(0x100); w != 2 {
		t.Fatalf("fill waiters = %d, want 2", w)
	}
	if r := c.Access(0x13f); r != Hit {
		t.Fatalf("post-fill access = %v, want hit", r)
	}
	if c.OutstandingMisses() != 0 {
		t.Fatalf("outstanding misses = %d, want 0", c.OutstandingMisses())
	}
}

func TestMSHRExhaustionRejects(t *testing.T) {
	c := MustNew(smallGeom())
	for i := 0; i < 4; i++ {
		if r := c.Access(Addr(i * 0x1000)); r != Miss {
			t.Fatalf("access %d = %v, want miss", i, r)
		}
	}
	if r := c.Access(0x9000); r != Reject {
		t.Fatalf("access with full MSHRs = %v, want reject", r)
	}
	// A merged miss is still possible when its MSHR already exists.
	if r := c.Access(0x1010); r != MergedMiss {
		t.Fatalf("merge with full MSHRs = %v, want merged", r)
	}
	c.Fill(0x0000)
	if r := c.Access(0x9000); r != Miss {
		t.Fatalf("access after fill = %v, want miss", r)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(smallGeom())
	// Three lines mapping to the same set (set stride = sets*line = 256).
	a, b, d := Addr(0x000), Addr(0x100), Addr(0x200)
	for _, x := range []Addr{a, b} {
		c.Access(x)
		c.Fill(x)
	}
	c.Access(a) // touch a; b becomes LRU
	c.Access(d)
	c.Fill(d) // evicts b
	if !c.Contains(a) {
		t.Fatal("recently used line a was evicted")
	}
	if c.Contains(b) {
		t.Fatal("LRU line b survived eviction")
	}
	if !c.Contains(d) {
		t.Fatal("filled line d not resident")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestFillWithoutMissPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fill without outstanding miss did not panic")
		}
	}()
	MustNew(smallGeom()).Fill(0x40)
}

func TestFlush(t *testing.T) {
	c := MustNew(smallGeom())
	c.Access(0x40)
	c.Fill(0x40)
	c.Access(0x80)
	c.Flush()
	if c.Contains(0x40) {
		t.Fatal("line survived flush")
	}
	if c.OutstandingMisses() != 0 {
		t.Fatal("MSHRs survived flush")
	}
	if r := c.Access(0x40); r != Miss {
		t.Fatalf("post-flush access = %v, want miss", r)
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c := MustNew(smallGeom())
	c.Access(0x40) // miss
	c.Fill(0x40)
	c.Access(0x40) // hit
	c.Access(0x40) // hit
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if hr := s.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %g, want 2/3", hr)
	}
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear accesses")
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
}

func TestRejectDoesNotCountAsDemand(t *testing.T) {
	g := smallGeom()
	g.MSHRs = 1
	c := MustNew(g)
	c.Access(0x000)
	c.Access(0x1000) // reject
	s := c.Stats()
	if s.Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", s.Rejects)
	}
	if s.Accesses != 1 {
		t.Fatalf("demand accesses = %d, want 1", s.Accesses)
	}
}

func TestLineAddr(t *testing.T) {
	c := MustNew(smallGeom())
	if la := c.LineAddr(0x7f); la != 0x40 {
		t.Fatalf("LineAddr(0x7f) = %#x, want 0x40", uint64(la))
	}
	if la := c.LineAddr(0x40); la != 0x40 {
		t.Fatalf("LineAddr(0x40) = %#x, want 0x40", uint64(la))
	}
}

// Property: after any access/fill sequence, outstanding misses never exceed
// the MSHR count and every valid set holds at most `ways` lines.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		g := smallGeom()
		c := MustNew(g)
		rng := rand.New(rand.NewSource(seed))
		var pending []Addr
		for _, op := range ops {
			if op%3 == 0 && len(pending) > 0 {
				i := rng.Intn(len(pending))
				c.Fill(pending[i])
				pending = append(pending[:i], pending[i+1:]...)
				continue
			}
			a := Addr(op) * 16
			if c.Access(a) == Miss {
				pending = append(pending, c.LineAddr(a))
			}
			if c.OutstandingMisses() > g.MSHRs {
				return false
			}
			if len(pending) != c.OutstandingMisses() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a working set no larger than one set's capacity, strided to a
// single set, never misses after warm-up (LRU correctness).
func TestQuickLRUNoThrashWithinAssociativity(t *testing.T) {
	f := func(base uint16) bool {
		c := MustNew(smallGeom()) // 2 ways
		setStride := Addr(4 * 64) // sets * line
		a := Addr(base) * setStride
		b := a + setStride
		for _, x := range []Addr{a, b} {
			if c.Access(x) == Miss {
				c.Fill(x)
			}
		}
		for i := 0; i < 16; i++ {
			if c.Access(a) != Hit || c.Access(b) != Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mshrModel is the reference the MSHR file is checked against: pending
// misses in a map keyed by line, residency as per-set recency lists (least
// recent first), and the slot each outstanding miss was given.
type mshrModel struct {
	geom    config.Cache
	pending map[Addr]int
	slots   map[Addr]int
	sets    map[Addr][]Addr
	// order lists the pending lines in allocation order, so Fill picks a
	// victim deterministically.
	order []Addr
}

func newMSHRModel(g config.Cache) *mshrModel {
	return &mshrModel{geom: g, pending: map[Addr]int{}, slots: map[Addr]int{}, sets: map[Addr][]Addr{}}
}

func (m *mshrModel) set(la Addr) Addr {
	return la / Addr(m.geom.LineBytes) % Addr(m.geom.Sets)
}

func (m *mshrModel) resident(la Addr) int {
	for i, x := range m.sets[m.set(la)] {
		if x == la {
			return i
		}
	}
	return -1
}

func (m *mshrModel) access(la Addr) AccessResult {
	s := m.set(la)
	if i := m.resident(la); i >= 0 {
		lines := m.sets[s]
		m.sets[s] = append(append(lines[:i:i], lines[i+1:]...), la)
		return Hit
	}
	if _, ok := m.pending[la]; ok {
		m.pending[la]++
		return MergedMiss
	}
	if len(m.pending) >= m.geom.MSHRs {
		return Reject
	}
	m.pending[la] = 1
	m.order = append(m.order, la)
	return Miss
}

func (m *mshrModel) fill(la Addr) int {
	n := m.pending[la]
	delete(m.pending, la)
	delete(m.slots, la)
	for i, x := range m.order {
		if x == la {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
	s := m.set(la)
	lines := m.sets[s]
	if len(lines) == m.geom.Ways {
		lines = lines[1:]
	}
	m.sets[s] = append(lines[:len(lines):len(lines)], la)
	return n
}

// mshrPatterns names the address pools runMSHRFile draws from.
var mshrPatterns = []string{"spread", "one-set", "one-bucket"}

// mshrPool returns 2×MSHRs+4 distinct line addresses: consecutive lines
// ("spread"), lines strided to a single set ("one-set"), or lines that all
// hash to one MSHR bucket ("one-bucket").
func mshrPool(c *Cache, pattern string) []Addr {
	g := c.Geometry()
	n := 2*g.MSHRs + 4
	pool := make([]Addr, 0, n)
	line := Addr(g.LineBytes)
	switch pattern {
	case "spread":
		for i := 0; i < n; i++ {
			pool = append(pool, Addr(i)*line)
		}
	case "one-set":
		for i := 0; i < n; i++ {
			pool = append(pool, Addr(i*g.Sets)*line)
		}
	case "one-bucket":
		want := c.bucket(0)
		for a := Addr(0); len(pool) < n; a += line {
			if c.bucket(a) == want {
				pool = append(pool, a)
			}
		}
	}
	return pool
}

// runMSHRFile replays an operation script against a cache and the reference
// model, fails the test at the first disagreement and returns the cache's
// statistics. data[0] picks the MSHR count (1, 3, 32 or 128) and data[1] the
// address pattern; each later pair of bytes is one operation — Access, Fill
// of the oldest or newest pending line, a MissPending/Contains probe, or
// (rarely) Flush — and the pool index of its address.
func runMSHRFile(t *testing.T, data []byte) Stats {
	t.Helper()
	if len(data) < 2 {
		return Stats{}
	}
	g := config.Cache{Sets: 8, Ways: 2, LineBytes: 64, MSHRs: []int{1, 3, 32, 128}[data[0]%4]}
	pattern := mshrPatterns[int(data[1])%len(mshrPatterns)]
	c := MustNew(g)
	m := newMSHRModel(g)
	pool := mshrPool(c, pattern)
	for step := 0; 2*step+3 < len(data); step++ {
		op, idx := data[2*step+2], data[2*step+3]
		a := pool[int(idx)*len(pool)/256] + Addr(op>>3)
		la := c.LineAddr(a)
		switch op & 7 {
		case 0, 1, 2, 3:
			got, want := c.Access(a), m.access(la)
			if got != want {
				t.Fatalf("step %d: Access(%#x) = %v, model %v", step, uint64(a), got, want)
			}
			if got != Miss && got != MergedMiss {
				break
			}
			slot := c.Slot()
			if slot < 0 || slot >= g.MSHRs {
				t.Fatalf("step %d: slot %d outside [0, %d)", step, slot, g.MSHRs)
			}
			if got == MergedMiss {
				if m.slots[la] != slot {
					t.Fatalf("step %d: merge into slot %d, miss was given %d", step, slot, m.slots[la])
				}
				break
			}
			for other, s := range m.slots {
				if s == slot {
					t.Fatalf("step %d: slot %d given to %#x while %#x holds it", step, slot, uint64(la), uint64(other))
				}
			}
			m.slots[la] = slot
		case 4:
			if len(m.order) == 0 {
				break
			}
			victim := m.order[0]
			if op&8 != 0 {
				victim = m.order[len(m.order)-1]
			}
			slot := m.slots[victim]
			want := m.fill(victim)
			if got := c.Fill(victim); got != want {
				t.Fatalf("step %d: Fill(%#x) = %d waiters, model %d", step, uint64(victim), got, want)
			}
			if c.Slot() != slot {
				t.Fatalf("step %d: Fill released slot %d, miss was given %d", step, c.Slot(), slot)
			}
		case 5, 6:
			_, want := m.pending[la]
			if got := c.MissPending(a); got != want {
				t.Fatalf("step %d: MissPending(%#x) = %v, model %v", step, uint64(a), got, want)
			}
			if got, want := c.Contains(a), m.resident(la) >= 0; got != want {
				t.Fatalf("step %d: Contains(%#x) = %v, model %v", step, uint64(a), got, want)
			}
		case 7:
			if op>>3 != 0 {
				break
			}
			c.Flush()
			*m = *newMSHRModel(g)
		}
		if got, want := c.OutstandingMisses(), len(m.pending); got != want {
			t.Fatalf("step %d: OutstandingMisses = %d, model %d", step, got, want)
		}
		if got, want := c.MSHRsFree(), len(m.pending) < g.MSHRs; got != want {
			t.Fatalf("step %d: MSHRsFree = %v, model %v", step, got, want)
		}
	}
	return c.Stats()
}

// TestMSHRFileMatchesModel replays random scripts over every MSHR count and
// address pattern, including pools that collide in one set and in one hash
// bucket.
func TestMSHRFileMatchesModel(t *testing.T) {
	for mshrs := byte(0); mshrs < 4; mshrs++ {
		for pattern := range mshrPatterns {
			rng := rand.New(rand.NewSource(int64(mshrs)*10 + int64(pattern)))
			var total Stats
			for run := 0; run < 20; run++ {
				data := make([]byte, 2+rng.Intn(6000))
				rng.Read(data[2:])
				data[0], data[1] = mshrs, byte(pattern)
				s := runMSHRFile(t, data)
				total.Hits += s.Hits
				total.Merged += s.Merged
				total.Rejects += s.Rejects
			}
			if total.Hits == 0 || total.Merged == 0 || total.Rejects == 0 {
				t.Errorf("MSHRs index %d, pattern %s: scripts never reached some outcome: %+v",
					mshrs, mshrPatterns[pattern], total)
			}
		}
	}
}

func FuzzMSHRFile(f *testing.F) {
	for mshrs := byte(0); mshrs < 4; mshrs++ {
		for pattern := range mshrPatterns {
			f.Add([]byte{mshrs, byte(pattern), 0x00, 0, 0x08, 90, 0x01, 200, 0x04, 0, 0x05, 90, 0x0c, 0, 0x07, 0})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { runMSHRFile(t, data) })
}

package policy

import (
	"cmp"
	"slices"

	"equalizer/internal/cache"
	"equalizer/internal/clock"
	"equalizer/internal/gpu"
	"equalizer/internal/kernels"
)

// CCWS reimplements Cache-Conscious Wavefront Scheduling (Rogers et al.,
// MICRO 2012), the paper's cache-locality baseline. Each SM keeps a victim
// tag array recording recently evicted lines and their owner warps. When a
// warp misses on a line it itself evicted — lost intra-warp locality — its
// locality score rises; the issue scheduler then restricts memory issue to
// the highest-scoring warps, effectively shrinking the set of warps allowed
// to touch the L1 until locality recovers. Scores decay over time. CCWS
// never changes block counts or frequency.
type CCWS struct {
	// VictimTags bounds the per-SM victim tag array.
	VictimTags int
	// ScoreBump is added to a warp's score on a detected locality loss.
	ScoreBump int
	// DecayEvery is the cycle interval at which all scores decay by one.
	DecayEvery int
	// WarpsPerScore is the throttle gain: one warp is removed from the
	// memory-issue set for every WarpsPerScore points of total score.
	WarpsPerScore int

	sms []*ccwsSM
}

var _ gpu.Policy = (*CCWS)(nil)

// NewCCWS builds the policy with defaults analogous to the published
// configuration (the paper notes CCWS is sensitive to these).
func NewCCWS() *CCWS {
	return &CCWS{
		VictimTags:    512,
		ScoreBump:     64,
		DecayEvery:    16,
		WarpsPerScore: 96,
	}
}

// Name implements gpu.Policy.
func (p *CCWS) Name() string { return "CCWS" }

// ccwsSM is the per-SM locality detector and throttle.
type ccwsSM struct {
	parent *CCWS
	// owner maps a resident line to the warp that last touched it.
	owner map[cache.Addr]int
	// victims maps an evicted line to the warp that owned it; ring bounds
	// the array.
	victims map[cache.Addr]int
	ring    []cache.Addr
	ringPos int

	scores []int
	// allowed holds the warp slots permitted to issue memory instructions,
	// published to the SM as its memory-issue mask.
	allowed uint64
	// rank is rebalance's ordering scratch, kept so re-ranking every 64
	// cycles does not allocate.
	rank []int
}

func newCCWSSM(parent *CCWS, maxWarps int) *ccwsSM {
	s := &ccwsSM{
		parent:  parent,
		owner:   make(map[cache.Addr]int),
		victims: make(map[cache.Addr]int, parent.VictimTags),
		ring:    make([]cache.Addr, parent.VictimTags),
		scores:  make([]int, maxWarps),
		rank:    make([]int, maxWarps),
	}
	s.reset()
	return s
}

// reset returns the detector to its freshly built state, keeping its
// storage.
func (s *ccwsSM) reset() {
	clear(s.owner)
	clear(s.victims)
	clear(s.ring)
	s.ringPos = 0
	clear(s.scores)
	s.allowed = ^uint64(0)
}

// OnL1Access implements sm.L1Listener.
func (s *ccwsSM) OnL1Access(warpSlot int, line cache.Addr, res cache.AccessResult) {
	switch res {
	case cache.Hit, cache.Miss, cache.MergedMiss:
		if res != cache.Hit {
			if owner, ok := s.victims[line]; ok && owner == warpSlot {
				// The warp lost its own locality: raise its score.
				s.scores[warpSlot] += s.parent.ScoreBump
				delete(s.victims, line)
			}
		}
		s.owner[line] = warpSlot
	case cache.Reject:
		// No cache state change.
	}
}

// OnL1Evict implements sm.L1Listener.
func (s *ccwsSM) OnL1Evict(line cache.Addr) {
	owner, ok := s.owner[line]
	if !ok {
		return
	}
	delete(s.owner, line)
	// Insert into the bounded victim tag array, displacing the oldest.
	if old := s.ring[s.ringPos]; old != 0 {
		delete(s.victims, old)
	}
	s.ring[s.ringPos] = line
	s.ringPos = (s.ringPos + 1) % len(s.ring)
	s.victims[line] = owner
}

// rebalance recomputes the allowed set: total score shrinks the number of
// warps permitted to issue loads; the highest-scoring warps keep access.
func (s *ccwsSM) rebalance() {
	total := 0
	for _, sc := range s.scores {
		total += sc
	}
	n := len(s.scores)
	throttled := total / s.parent.WarpsPerScore
	if throttled > n-1 {
		throttled = n - 1
	}
	if throttled == 0 {
		s.allowed = ^uint64(0)
		return
	}
	// Rank warps by score descending; the bottom `throttled` lose access.
	// The sort is stable, so equal scores keep slot order.
	for i := range s.rank {
		s.rank[i] = i
	}
	slices.SortStableFunc(s.rank, func(a, b int) int { return cmp.Compare(s.scores[b], s.scores[a]) })
	s.allowed = 0
	for _, w := range s.rank[:n-throttled] {
		s.allowed |= 1 << uint(w)
	}
}

func (s *ccwsSM) decay() {
	for i := range s.scores {
		if s.scores[i] > 0 {
			s.scores[i]--
		}
	}
}

// Reset implements gpu.Policy. The per-SM detectors are cleared and reused
// while the SM count, warp slots and victim-array size stay the same.
func (p *CCWS) Reset(m *gpu.Machine, _ kernels.Kernel) {
	maxWarps := m.Config().MaxWarpsPerSM
	reuse := len(p.sms) == m.NumSMs() && len(p.sms) > 0 &&
		len(p.sms[0].scores) == maxWarps && len(p.sms[0].ring) == p.VictimTags
	if !reuse {
		p.sms = make([]*ccwsSM, m.NumSMs())
	}
	for i := range p.sms {
		if reuse {
			p.sms[i].reset()
		} else {
			p.sms[i] = newCCWSSM(p, maxWarps)
		}
		s := p.sms[i]
		m.SM(i).SetL1Listener(s)
		m.SM(i).SetMemIssueMask(s.allowed)
	}
}

// OnSMCycle implements gpu.Policy.
func (p *CCWS) OnSMCycle(m *gpu.Machine, _ clock.Time, smCycle int64) {
	if smCycle%int64(p.DecayEvery) == 0 {
		for _, s := range p.sms {
			s.decay()
		}
	}
	if smCycle%64 == 0 {
		for i, s := range p.sms {
			s.rebalance()
			m.SM(i).SetMemIssueMask(s.allowed)
		}
	}
}

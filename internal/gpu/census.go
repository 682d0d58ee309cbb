package gpu

// The machine samples the chip-wide warp-state census that Figures 2b, 4
// and 11b plot: every censusInterval SM cycles it sums SM(i).Snapshot()
// over the SMs, and every censusEpoch cycles it closes one point of the
// per-epoch series. These are the paper's 128-cycle sample and 4 096-cycle
// epoch. Unlike core.Equalizer's per-SM sampling, whose interval is an
// ablation parameter, they are fixed.
const (
	censusInterval = 128
	censusEpoch    = 4096
)

// StateSums accumulates census counts across samples and SMs.
type StateSums struct {
	Active, Waiting, Issued, XALU, XMEM, Others int64
}

func (s *StateSums) add(o StateSums) {
	s.Active += o.Active
	s.Waiting += o.Waiting
	s.Issued += o.Issued
	s.XALU += o.XALU
	s.XMEM += o.XMEM
	s.Others += o.Others
}

// EpochPoint is one epoch of mean per-SM census values.
type EpochPoint struct {
	Epoch                               int
	Active, Waiting, XALU, XMEM, Issued float64
}

// Census is one invocation's warp-state census. A partial last epoch counts
// in Sums but not in Series.
type Census struct {
	Sums StateSums
	// Series holds one point per complete epoch, numbered from 1.
	Series []EpochPoint
}

// Distribution returns the fractions of warps observed in each state,
// normalised by accounted warps (active = waiting + issued + Xalu + Xmem
// after excluding Others).
func (c Census) Distribution() (waiting, issued, xalu, xmem float64) {
	s := c.Sums
	total := float64(s.Waiting + s.Issued + s.XALU + s.XMEM)
	if total == 0 {
		return 0, 0, 0, 0
	}
	return float64(s.Waiting) / total,
		float64(s.Issued) / total,
		float64(s.XALU) / total,
		float64(s.XMEM) / total
}

// sampleCensus adds one census sample after the policy hook of SM cycle
// smCycle and closes an epoch on every censusEpoch-th cycle.
func (m *Machine) sampleCensus(smCycle int64) {
	var sum StateSums
	for _, s := range m.sms {
		snap := s.Snapshot()
		sum.add(StateSums{Active: int64(snap.Active), Waiting: int64(snap.Waiting), Issued: int64(snap.Issued),
			XALU: int64(snap.XALU), XMEM: int64(snap.XMEM), Others: int64(snap.Others)})
	}
	m.census.Sums.add(sum)
	m.censusOpen.add(sum)
	m.censusN++
	if smCycle%censusEpoch != 0 {
		return
	}
	o, n := m.censusOpen, float64(m.censusN*len(m.sms))
	m.census.Series = append(m.census.Series, EpochPoint{
		Epoch:   len(m.census.Series) + 1,
		Active:  float64(o.Active) / n,
		Waiting: float64(o.Waiting) / n,
		XALU:    float64(o.XALU) / n,
		XMEM:    float64(o.XMEM) / n,
		Issued:  float64(o.Issued) / n,
	})
	m.censusOpen, m.censusN = StateSums{}, 0
}

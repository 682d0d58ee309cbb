// Package clock implements the multi-domain DVFS timeline of the simulated
// GPU. The SM cores and the memory system (interconnect, L2, memory
// controller, DRAM) run on independent voltage/frequency domains; each domain
// is a Domain whose period changes with its VFLevel. A global integer
// picosecond timeline lets the two domains interleave deterministically.
package clock

import (
	"fmt"

	"equalizer/internal/config"
)

// Time is an absolute simulation time in picoseconds.
type Time int64

// Domain is one voltage/frequency domain: a cycle counter plus the wall-clock
// time of its next cycle boundary. Frequency transitions are not instant: a
// requested level becomes effective only after the configured regulator
// delay, mirroring the 512-SM-cycle on-chip VRM of Section V-A.
type Domain struct {
	name       string
	nominalPS  float64
	modulation float64

	level   config.VFLevel
	pending config.VFLevel
	// switchAt is the time at which pending becomes effective; zero when no
	// transition is in flight.
	switchAt Time
	hasSwap  bool

	cycle int64
	next  Time

	// residency accumulates wall time spent at each level, for Figure 9.
	residency  [3]Time
	lastUpdate Time
}

// NewDomain creates a domain with the given nominal period in picoseconds and
// modulation fraction, starting at VFNormal with its first cycle boundary at
// time zero.
func NewDomain(name string, nominalPS int64, modulation float64) *Domain {
	if nominalPS <= 0 {
		panic(fmt.Sprintf("clock: non-positive nominal period %d for domain %s", nominalPS, name))
	}
	return &Domain{
		name:       name,
		nominalPS:  float64(nominalPS),
		modulation: modulation,
		level:      config.VFNormal,
	}
}

// Name returns the domain's label.
func (d *Domain) Name() string { return d.name }

// Level returns the currently effective VF level.
func (d *Domain) Level() config.VFLevel { return d.level }

// Cycle returns the number of completed cycles.
func (d *Domain) Cycle() int64 { return d.cycle }

// Next returns the time of the next cycle boundary.
func (d *Domain) Next() Time { return d.next }

// Frequency returns the current frequency multiplier relative to nominal.
func (d *Domain) Frequency() float64 { return d.level.Multiplier(d.modulation) }

// period returns the current cycle period in picoseconds.
func (d *Domain) period() Time {
	p := Time(d.nominalPS / d.level.Multiplier(d.modulation))
	if p <= 0 {
		p = 1
	}
	return p
}

// RequestLevel schedules a transition to the target level. The change takes
// effect at time `effective`; requesting the current (or already pending)
// level is a no-op. Only one transition can be in flight: a new request
// overrides an unrealized one.
func (d *Domain) RequestLevel(target config.VFLevel, effective Time) {
	if !target.Valid() {
		panic(fmt.Sprintf("clock: invalid VF level %d requested on domain %s", target, d.name))
	}
	if target == d.level && !d.hasSwap {
		return
	}
	if d.hasSwap && target == d.pending {
		return
	}
	d.pending = target
	d.switchAt = effective
	d.hasSwap = target != d.level
}

// Tick advances the domain by one cycle and returns the time at which that
// cycle completed. Pending VF transitions are applied at cycle boundaries
// once their effective time has been reached.
//
//eqlint:cycle-owner
func (d *Domain) Tick() Time {
	t := d.next
	d.accumulateResidency(t)
	if d.hasSwap && t >= d.switchAt {
		d.level = d.pending
		d.hasSwap = false
	}
	d.cycle++
	d.next = t + d.period()
	return t
}

func (d *Domain) accumulateResidency(now Time) {
	if now > d.lastUpdate {
		d.residency[d.level] += now - d.lastUpdate
		d.lastUpdate = now
	}
}

// Residency returns the wall time spent at each VF level up to the last tick.
func (d *Domain) Residency() (low, normal, high Time) {
	return d.residency[config.VFLow], d.residency[config.VFNormal], d.residency[config.VFHigh]
}

// CyclesToTime converts a cycle count at the current operating point into
// wall time. It is used for regulator-delay arithmetic.
func (d *Domain) CyclesToTime(cycles int) Time {
	return Time(cycles) * d.period()
}

// Package catest exercises the cycleaccounting analyzer: cycle counters may
// only advance inside //eqlint:cycle-owner functions, and SM-domain cycle
// counts must never meet memory-domain ones in one expression.
package catest

type domain struct {
	cycle     int64
	epoch     int
	smCycles  int64
	memCycles int64
	name      string
}

// tick is the canonical advance site.
//
//eqlint:cycle-owner
func (d *domain) tick() {
	d.cycle++ // ok: blessed
}

// reset re-zeroes counters for a new invocation.
//
//eqlint:cycle-owner
func (d *domain) reset() {
	d.cycle = 0 // ok: blessed
	d.epoch = 0
}

func (d *domain) skew() {
	d.cycle += 2 // want "counter d.cycle mutated outside a cycle-owner"
}

func (d *domain) bumpEpoch() {
	d.epoch++ // want "counter d.epoch mutated outside a cycle-owner"
}

func (d *domain) rename(n string) {
	d.name = n // ok: not a cycle counter
}

func localCounters() int64 {
	var smCycle int64
	smCycle++ // ok: locals cannot leak accounting state
	return smCycle
}

//eqlint:cycle-owner
func (d *domain) tickViaClosure() {
	bump := func() {
		d.cycle++ // ok: closure inherits the owner blessing
	}
	bump()
}

func (d *domain) crossDomain() bool {
	return d.smCycles < d.memCycles // want "mixes SM-domain and memory-domain cycle counts"
}

func (d *domain) crossDomainDelta() int64 {
	return d.smCycles - d.memCycles // want "mixes SM-domain and memory-domain cycle counts"
}

func (d *domain) sameDomain() bool {
	return d.smCycles < 100 // ok: one domain against a scalar
}

// bulkAdvance is the closed-form shape: a blessed owner may retire many
// cycles in one assignment.
//
//eqlint:cycle-owner
func (d *domain) bulkAdvance(n int64) {
	d.cycle += n // ok: bulk advance inside the blessed owner
	d.smCycles += n
}

func (d *domain) sneakyBulkAdvance(n int64) {
	d.cycle += n // want "counter d.cycle mutated outside a cycle-owner"
}

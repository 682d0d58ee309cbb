// Package icnt models the on-chip interconnect between the SMs and the
// shared L2/memory partition. Each SM owns a bounded ingress FIFO of memory
// requests; every memory-system cycle the network drains up to a configured
// number of requests towards the L2 with round-robin fairness across SMs.
// A full FIFO stalls the SM's load/store unit — one link in the chain of
// back-pressure that Equalizer's Xmem counter observes.
package icnt

import (
	"fmt"

	"equalizer/internal/cache"
)

// Request is one outstanding cache-line read travelling from an SM towards
// the memory partition.
type Request struct {
	// SM identifies the requesting streaming multiprocessor.
	SM int
	// Line is the line-aligned address.
	Line cache.Addr
}

// Config holds network parameters.
type Config struct {
	// NumSMs is the number of ingress ports.
	NumSMs int
	// QueueDepth bounds each SM's ingress FIFO.
	QueueDepth int
	// DrainPerCycle bounds how many requests the network delivers to the L2
	// per memory cycle across all SMs.
	DrainPerCycle int
}

// Validate reports a descriptive error for unusable parameters.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("icnt: NumSMs must be positive, got %d", c.NumSMs)
	case c.QueueDepth <= 0:
		return fmt.Errorf("icnt: QueueDepth must be positive, got %d", c.QueueDepth)
	case c.DrainPerCycle <= 0:
		return fmt.Errorf("icnt: DrainPerCycle must be positive, got %d", c.DrainPerCycle)
	}
	return nil
}

// Stats aggregates network activity.
type Stats struct {
	// Pushed counts accepted requests.
	Pushed uint64
	// Delivered counts requests handed to the L2.
	Delivered uint64
	// Stalled counts Push attempts rejected on a full FIFO.
	Stalled uint64
	// BlockedDeliveries counts delivery attempts declined by the L2 side.
	BlockedDeliveries uint64
}

// Network is the interconnect. Not safe for concurrent use.
type Network struct {
	cfg    Config
	queues [][]Request
	// rr is the round-robin pointer for fairness across SM ports.
	rr    int
	stats Stats
}

// New builds a network.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, queues: make([][]Request, cfg.NumSMs)}
	for i := range n.queues {
		n.queues[i] = make([]Request, 0, cfg.QueueDepth)
	}
	return n, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// CanPush reports whether SM sm's ingress FIFO has room.
func (n *Network) CanPush(sm int) bool { return len(n.queues[sm]) < n.cfg.QueueDepth }

// Push enqueues a request from its SM, returning false when the FIFO is full.
func (n *Network) Push(r Request) bool {
	q := n.queues[r.SM]
	if len(q) >= n.cfg.QueueDepth {
		n.stats.Stalled++
		return false
	}
	n.queues[r.SM] = append(q, r)
	n.stats.Pushed++
	return true
}

// QueueLen returns the occupancy of one SM's FIFO.
func (n *Network) QueueLen(sm int) int { return len(n.queues[sm]) }

// Pending returns the total number of queued requests.
func (n *Network) Pending() int {
	total := 0
	for _, q := range n.queues {
		total += len(q)
	}
	return total
}

// Drain delivers up to DrainPerCycle requests to the consumer with
// round-robin fairness. The consumer returns false to refuse a request
// (downstream back-pressure); a refused request stays at its FIFO head. The
// call visits ports in round-robin order and stops after DrainPerCycle
// deliveries or after NumSMs consecutive visits that delivered nothing, so a
// refused port is offered again in the same call once any other port has
// delivered — the consumer may see one head many times per call.
func (n *Network) Drain(consume func(Request) bool) {
	delivered := 0
	blockedPorts := 0
	ports := n.cfg.NumSMs
	for delivered < n.cfg.DrainPerCycle && blockedPorts < ports {
		port := n.rr
		n.rr = (n.rr + 1) % ports
		q := n.queues[port]
		if len(q) == 0 {
			blockedPorts++
			continue
		}
		if !consume(q[0]) {
			n.stats.BlockedDeliveries++
			blockedPorts++
			continue
		}
		copy(q, q[1:])
		n.queues[port] = q[:len(q)-1]
		n.stats.Delivered++
		delivered++
		blockedPorts = 0
	}
}

// Stats returns a copy of the accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// ResetStats clears statistics without disturbing queue contents.
func (n *Network) ResetStats() { n.stats = Stats{} }

// Drained reports whether every FIFO is empty.
func (n *Network) Drained() bool { return n.Pending() == 0 }

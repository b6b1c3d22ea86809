// Package bus is the flat configuration of the source paper's model: a
// closed network of N processors around Buses identical multiplexed
// buses behind a single arbitration point (Buses = 1, the default, is
// the paper's single shared bus), in the paper's two regimes —
// unbuffered, where a processor blocks from the moment it issues a bus
// request until the bus has served it, and buffered, where requests
// queue at the processor's interface (finite or unbounded capacity) and
// the processor keeps computing.
//
// Each processor alternates between thinking (local work, exponential
// with rate ThinkRate) and issuing a bus transaction whose service time
// is exponential with rate ServiceRate on whichever bus serves it. An
// Arbiter picks which processor's interface is granted next; the grant
// goes to the lowest-numbered free bus.
//
// The package holds no event model of its own: New lowers a Config onto
// a one-segment topo.Fabric, and Network reads its state and metrics
// from that fabric.
package bus

import (
	"fmt"
	"math"

	"github.com/busnet/busnet/internal/servdist"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/topo"
	"github.com/busnet/busnet/internal/workload"
)

// Mode selects the paper's two regimes; see topo.Mode.
type Mode = topo.Mode

const (
	// Unbuffered blocks the issuing processor until its request completes.
	Unbuffered = topo.Unbuffered
	// Buffered queues requests at the bus interface so the processor can
	// continue thinking, up to BufferCap outstanding requests.
	Buffered = topo.Buffered
	// Infinite marks an unbounded per-processor buffer in Buffered mode.
	Infinite = topo.Infinite
)

// NewRoundRobin returns the round-robin arbiter; see topo.NewRoundRobin.
func NewRoundRobin() *topo.RoundRobinArbiter { return topo.NewRoundRobin() }

// Config describes one network instance.
type Config struct {
	Processors  int     // N ≥ 1
	ThinkRate   float64 // λ: per-processor request generation rate while thinking
	ServiceRate float64 // μ: per-bus service rate
	Mode        Mode
	BufferCap   int // per-processor queue capacity in Buffered mode; Infinite for unbounded
	Arbiter     topo.Arbiter
	// Buses is the number of identical parallel buses behind the
	// arbitration point, m ≥ 1. Zero means one — the paper's single-bus
	// model and the pre-fabric default.
	Buses int
	// Sources optionally shapes each processor's request generation: one
	// workload.Source per processor. Nil keeps the paper's model —
	// Poisson think times at ThinkRate for every processor. When set,
	// ThinkRate is not consulted (the sources own their rates).
	Sources []workload.Source
	// Service optionally shapes the bus service time. Nil keeps the
	// paper's model — exponential service at ServiceRate. Non-nil dists
	// are expected to have mean 1/ServiceRate (servdist builds them that
	// way) so ServiceRate remains the load knob and the dist only the
	// shape.
	Service servdist.Dist
	// Quantiles enables the per-observation wait/response histograms
	// behind Metrics.WaitHist/RespHist; see topo.Config.Quantiles.
	Quantiles bool
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Processors < 1:
		return fmt.Errorf("bus: Processors = %d, need ≥ 1", c.Processors)
	case c.Buses < 0:
		return fmt.Errorf("bus: Buses = %d, need ≥ 1 (or 0 for the single-bus default)", c.Buses)
	case c.Sources == nil && (!(c.ThinkRate > 0) || math.IsInf(c.ThinkRate, 1)):
		// An infinite rate makes Exp draw 0 forever, freezing the clock.
		return fmt.Errorf("bus: ThinkRate = %v, need finite and > 0", c.ThinkRate)
	case c.Sources != nil && len(c.Sources) != c.Processors:
		return fmt.Errorf("bus: %d sources for %d processors", len(c.Sources), c.Processors)
	case !(c.ServiceRate > 0) || math.IsInf(c.ServiceRate, 1):
		return fmt.Errorf("bus: ServiceRate = %v, need finite and > 0", c.ServiceRate)
	case c.Mode != Unbuffered && c.Mode != Buffered:
		return fmt.Errorf("bus: unknown mode %d", int(c.Mode))
	case c.Mode == Buffered && c.BufferCap != Infinite && c.BufferCap < 1:
		return fmt.Errorf("bus: BufferCap = %d, need ≥ 1 or Infinite", c.BufferCap)
	case c.Arbiter == nil:
		return fmt.Errorf("bus: Arbiter is nil")
	}
	for i, s := range c.Sources {
		if s == nil {
			return fmt.Errorf("bus: Sources[%d] is nil", i)
		}
	}
	// Arbiters carrying per-processor state (e.g. weighted round-robin)
	// expose their size; a mismatch would index out of bounds mid-run.
	if sized, ok := c.Arbiter.(interface{ Stations() int }); ok && sized.Stations() != c.Processors {
		return fmt.Errorf("bus: arbiter %q sized for %d stations, config has %d processors",
			c.Arbiter.Name(), sized.Stations(), c.Processors)
	}
	return nil
}

// Network is the simulated flat system: a one-segment topo.Fabric. It
// is not safe for concurrent use; all mutation happens inside engine
// callbacks.
type Network struct {
	fab *topo.Fabric
}

// New lowers cfg onto a one-segment fabric on the given engine and RNG;
// topo.New validates the result, so Validate's flat checks are left to
// callers that want its error texts. Start must be called to schedule
// the initial think completions.
func New(cfg Config, eng *sim.Engine, rng *sim.RNG) (*Network, error) {
	fab, err := topo.New(topo.Config{
		Segments: []topo.SegmentConfig{{
			Buses:       cfg.Buses,
			ServiceRate: cfg.ServiceRate,
			Service:     cfg.Service,
			Arbiter:     cfg.Arbiter,
			Stations:    cfg.Processors,
			ThinkRate:   cfg.ThinkRate,
			Sources:     cfg.Sources,
			Mode:        cfg.Mode,
			BufferCap:   cfg.BufferCap,
		}},
		Quantiles: cfg.Quantiles,
	}, eng, rng)
	if err != nil {
		return nil, err
	}
	return &Network{fab: fab}, nil
}

// Start schedules the first think completion for every processor. All
// processors begin in the thinking state.
func (n *Network) Start() { n.fab.Start() }

// ResetStats discards all accumulated statistics and restarts collection
// at the current simulation time, preserving network state. Used to drop
// the warmup transient.
func (n *Network) ResetStats() { n.fab.ResetStats() }

// SetProbe attaches p to the bus's grant/stall/complete hook points — the
// fabric's hop hooks on segment 0 — or detaches with nil. Attach before
// Start.
func (n *Network) SetProbe(p topo.Probe) { n.fab.SetProbe(p) }

// Counters returns the network's deterministic counters as of now; the
// bridge counters are always zero.
func (n *Network) Counters() topo.Counters { return n.fab.Counters() }

// Metrics is a point-in-time summary of the measured interval, from
// New or the last ResetStats to now: the segment's metrics plus the
// interval's length.
// Utilization is the time-averaged fraction of busy buses (the busy
// indicator of the single bus when Buses == 1); BusUtilization breaks it
// down per bus. WaitHist and RespHist are nil unless Config.Quantiles
// enabled collection.
type Metrics struct {
	Elapsed float64
	topo.SegmentMetrics
}

// Snapshot computes metrics as of the engine's current time without
// disturbing the collectors, so the simulation can continue afterwards.
func (n *Network) Snapshot() Metrics {
	return Metrics{Elapsed: n.fab.Elapsed(), SegmentMetrics: n.fab.SegmentSnapshot(0)}
}

// Outstanding returns the number of requests processor i has in flight:
// waiting at its interface, stalled at a full interface, or in service
// on any bus. Exposed for invariant checks in tests.
func (n *Network) Outstanding(i int) int { return n.fab.Outstanding(0, i) }

// Busy returns the number of buses currently serving a request.
// Exposed for invariant checks in tests.
func (n *Network) Busy() int { return n.fab.Busy(0) }

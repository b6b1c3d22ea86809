package busnet

import (
	"fmt"

	"github.com/busnet/busnet/internal/enum"
	"github.com/busnet/busnet/internal/topo"
)

// ArbiterKind names a bus arbitration policy.
type ArbiterKind int

const (
	// RoundRobin grants the bus cyclically starting after the last grantee.
	RoundRobin ArbiterKind = iota
	// FixedPriority always grants the lowest-index pending processor.
	FixedPriority
	// WeightedRoundRobin cycles like RoundRobin but grants processor i up
	// to its integer weight (Config.Weights) consecutive transactions per
	// visit, so saturated grant shares match the weight ratios. With
	// all-ones weights (the default when Config.Weights is empty) it is
	// grant-for-grant identical to RoundRobin.
	WeightedRoundRobin
)

// String implements fmt.Stringer.
func (k ArbiterKind) String() string {
	switch k {
	case RoundRobin:
		return "round-robin"
	case FixedPriority:
		return "fixed-priority"
	case WeightedRoundRobin:
		return "weighted-round-robin"
	default:
		return fmt.Sprintf("ArbiterKind(%d)", int(k))
	}
}

// MarshalText renders the arbiter's canonical name — the same string
// ParseArbiter accepts — and rejects out-of-range kinds at encode time.
func (k ArbiterKind) MarshalText() ([]byte, error) {
	if _, err := ParseArbiter(k.String()); err != nil {
		return nil, err
	}
	return []byte(k.String()), nil
}

// UnmarshalText parses exactly the names ParseArbiter accepts,
// including the empty-string RoundRobin default.
func (k *ArbiterKind) UnmarshalText(text []byte) error {
	return enum.UnmarshalText(k, text, ParseArbiter)
}

// Infinite marks an unbounded buffer in WithBuffer and Config.BufferCap.
const Infinite = topo.Infinite

// warmupSetting records which warmup option, if any, was applied last,
// so the pair follows the same last-option-wins rule as every other
// functional option.
type warmupSetting int

const (
	warmupDefault  warmupSetting = iota // neither set: 10% of the horizon
	warmupAbsolute                      // WithWarmup: Config.Warmup holds the time
	warmupFraction                      // WithWarmupFraction: scale the final horizon
)

// builder accumulates functional options into a Config plus the bits of
// bookkeeping — "how was warmup specified?" — that a plain value type
// cannot carry. New resolves it into an immutable Config.
type builder struct {
	cfg        Config
	warmup     warmupSetting
	warmupFrac float64
}

// Option configures a Network at construction time.
type Option func(*builder)

// WithProcessors sets the number of processors N on the bus.
func WithProcessors(n int) Option { return func(b *builder) { b.cfg.Processors = n } }

// WithBuses sets the number of identical parallel buses m behind the
// arbitration point. The default 1 is the paper's single shared bus;
// larger fabrics grant each waiting request to the lowest-numbered free
// bus, all serving independently at the service rate.
func WithBuses(m int) Option { return func(b *builder) { b.cfg.Buses = m } }

// WithThinkRate sets λ, the rate at which each thinking processor
// generates bus requests (mean think time 1/λ).
func WithThinkRate(lambda float64) Option { return func(b *builder) { b.cfg.ThinkRate = lambda } }

// WithServiceRate sets μ, the bus service rate (mean transaction 1/μ).
func WithServiceRate(mu float64) Option { return func(b *builder) { b.cfg.ServiceRate = mu } }

// WithService selects the bus service-time distribution; see
// ExponentialService, DeterministicService, ErlangService, and
// HyperexpService. Every shape keeps mean 1/ServiceRate, so this moves
// only the variability of bus transactions, never the offered load. The
// default is exponential at the service rate, the source paper's model.
func WithService(s Service) Option { return func(b *builder) { b.cfg.Service = s } }

// WithUnbuffered selects the unbuffered regime: a processor blocks from
// issuing a request until the bus has served it. This is the default.
func WithUnbuffered() Option {
	return func(b *builder) { b.cfg.Mode = ModeUnbuffered }
}

// WithBuffer selects the buffered regime with the given per-processor
// interface capacity. Pass Infinite (or any value ≤ 0) for unbounded
// queues.
func WithBuffer(capacity int) Option {
	return func(b *builder) {
		b.cfg.Mode = ModeBuffered
		if capacity <= 0 {
			capacity = Infinite
		}
		b.cfg.BufferCap = capacity
	}
}

// WithArbiter selects the arbitration policy.
func WithArbiter(kind ArbiterKind) Option { return func(b *builder) { b.cfg.Arbiter = kind.String() } }

// WithWeights selects the weighted-round-robin arbiter with the given
// per-processor weights (one integer ≥ 1 per processor, in index
// order). It implies WithArbiter(WeightedRoundRobin).
func WithWeights(weights ...int) Option {
	return func(b *builder) {
		b.cfg.Arbiter = WeightedRoundRobin.String()
		b.cfg.Weights = FormatWeights(weights)
	}
}

// WithTraffic selects the traffic shape every processor generates
// requests with; see PoissonTraffic, MMPP2Traffic, OnOffTraffic, and
// DeterministicTraffic. The default is Poisson at the think rate, the
// source paper's model.
func WithTraffic(t Traffic) Option { return func(b *builder) { b.cfg.Traffic = t } }

// WithQuantiles enables per-observation wait/response latency
// histograms, feeding Results.WaitQuantiles/ResponseQuantiles (nil
// without it). Off by default — the histogram updates are a measurable
// per-event tax on the simulation hot path. Enabling it never changes
// the run's event trajectory: histograms draw nothing from the RNG.
func WithQuantiles() Option { return func(b *builder) { b.cfg.Quantiles = true } }

// WithSeed sets the RNG seed. Runs with equal configuration and seed
// produce identical Results.
func WithSeed(seed int64) Option { return func(b *builder) { b.cfg.Seed = seed } }

// WithStream selects an RNG substream of the seed. Different streams of
// one seed are statistically independent — use one stream per replication
// so a whole experiment reproduces from a single seed. Defaults to 0.
func WithStream(stream uint64) Option { return func(b *builder) { b.cfg.Stream = stream } }

// WithHorizon sets the simulated time at which the run stops.
func WithHorizon(t float64) Option { return func(b *builder) { b.cfg.Horizon = t } }

// WithWarmup sets the simulated time at which statistics collection
// starts, discarding the initial transient. Defaults to 10% of the
// horizon.
func WithWarmup(t float64) Option {
	return func(b *builder) { b.cfg.Warmup = t; b.warmup = warmupAbsolute }
}

// WithWarmupFraction sets the warmup as a fraction of the horizon, so the
// truncation point scales when the horizon changes. As with every
// option, the last of WithWarmup/WithWarmupFraction wins; fractions
// outside [0, 1) are rejected by New.
func WithWarmupFraction(f float64) Option {
	return func(b *builder) { b.warmupFrac = f; b.warmup = warmupFraction }
}

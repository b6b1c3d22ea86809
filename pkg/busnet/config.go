package busnet

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/busnet/busnet/internal/servdist"
	"github.com/busnet/busnet/internal/topo"
	"github.com/busnet/busnet/internal/workload"
)

// Mode strings accepted by Config.Mode. The empty string normalizes to
// ModeUnbuffered so zero-ish Config literals stay usable.
const (
	// ModeUnbuffered blocks the issuing processor until its request
	// completes on the bus.
	ModeUnbuffered = "unbuffered"
	// ModeBuffered queues requests at the processor's bus interface so
	// the processor keeps computing, up to BufferCap outstanding requests.
	ModeBuffered = "buffered"
)

// Config is the complete, immutable description of one simulation
// operating point. It is a plain comparable value type: copy it, tweak a
// field, and hand the copy to FromConfig to fan one base configuration
// out into a parameter grid or a set of replications — the struct itself
// never runs anything and holds no simulation state.
//
// Mode and Arbiter are strings (see ModeUnbuffered/ModeBuffered and
// ArbiterKind.String) so configs round-trip through JSON and CLI flags
// without a registry. Seed picks the experiment; Stream picks the
// replication substream within it — runs with equal (Seed, Stream) and
// equal parameters are bit-identical, while different Streams of one Seed
// are statistically independent.
//
// Traffic shapes every processor's request-generation process (Poisson
// by default — the paper's model; see the Traffic type for the bursty
// and deterministic alternatives). Weights is the comma-separated
// per-processor weight vector for the weighted-round-robin arbiter,
// e.g. "4,2,1,1"; it stays a string so the Config remains a comparable
// value and round-trips through JSON and CLI flags unchanged. Empty
// weights mean all ones; other arbiters ignore the field.
type Config struct {
	Processors int `json:"processors"`
	// Buses is the number of identical parallel buses behind the single
	// arbitration point, m ≥ 1. The default 1 is the paper's shared bus;
	// 0 (e.g. a config predating the fabric, or a zero-ish literal)
	// normalizes to 1, so every existing configuration keeps its exact
	// single-bus behavior.
	Buses       int     `json:"buses"`
	ThinkRate   float64 `json:"think_rate"`
	ServiceRate float64 `json:"service_rate"`
	// Service shapes the bus service-time distribution (exponential at
	// ServiceRate by default — the paper's model; see the Service type
	// for the deterministic, Erlang-k, and hyperexponential
	// alternatives). Every shape keeps mean 1/ServiceRate, so it moves
	// only the variability, never the offered load.
	Service   Service `json:"service,omitzero"`
	Mode      string  `json:"mode"`
	BufferCap int     `json:"buffer_cap"` // -1 = infinite; meaningful only in buffered mode
	Arbiter   string  `json:"arbiter"`
	Weights   string  `json:"weights,omitempty"`
	Traffic   Traffic `json:"traffic,omitzero"`
	Seed      int64   `json:"seed"`
	Stream    uint64  `json:"stream"`
	Horizon   float64 `json:"horizon"`
	Warmup    float64 `json:"warmup"`
	// Quantiles enables per-observation wait/response latency histograms,
	// feeding Results.WaitQuantiles/ResponseQuantiles and the pooled
	// sweep quantile columns. Off by default: the histogram updates sit
	// on the simulation hot path (a measurable per-event tax), and most
	// runs only read the scalar summaries. Toggling it never changes a
	// run's event trajectory — histograms draw nothing from the RNG — so
	// all other Results fields stay bit-identical either way.
	Quantiles bool `json:"quantiles,omitempty"`
}

// Traffic describes the shape of every processor's request-generation
// process: Poisson (the paper's model and the default), MMPP2 (2-state
// Markov-modulated Poisson, bursty), OnOff (burst/idle with a duty
// cycle), or Deterministic (the synchronous limit). It is a comparable
// value type that round-trips through JSON; see the constructor helpers
// PoissonTraffic, MMPP2Traffic, OnOffTraffic, and DeterministicTraffic,
// and docs/traffic.md for each shape's parameterization. Poisson and
// deterministic traffic draw their rate from Config.ThinkRate; MMPP2 and
// OnOff carry their own rates and ignore it.
type Traffic = workload.Spec

// TrafficKind names a traffic shape. It is a string-backed enum with
// String and JSON MarshalText/UnmarshalText: marshaling canonicalizes
// the empty zero value to "poisson" and rejects unknown names on both
// encode and decode.
type TrafficKind = workload.Kind

// Traffic kinds accepted by Traffic.Kind. The empty string normalizes
// to TrafficPoisson.
const (
	TrafficPoisson       = workload.KindPoisson
	TrafficMMPP2         = workload.KindMMPP2
	TrafficOnOff         = workload.KindOnOff
	TrafficDeterministic = workload.KindDeterministic
)

// ParseTrafficKind maps a traffic-shape name to its canonical kind. The
// empty string parses as TrafficPoisson.
func ParseTrafficKind(s string) (TrafficKind, error) { return workload.ParseKind(s) }

// PoissonTraffic returns the default traffic shape: exponential think
// times at Config.ThinkRate, the source paper's model.
func PoissonTraffic() Traffic { return Traffic{Kind: TrafficPoisson} }

// DeterministicTraffic returns fixed think times 1/Config.ThinkRate —
// the paper's synchronous limit.
func DeterministicTraffic() Traffic { return Traffic{Kind: TrafficDeterministic} }

// MMPP2Traffic returns a 2-state Markov-modulated Poisson shape:
// arrivals at rate0 or rate1 depending on a hidden state that flips
// 0→1 at rate switch01 and 1→0 at rate switch10. With rate0 == rate1 it
// is statistically Poisson at that rate; its long-run mean rate is
// (switch10·rate0 + switch01·rate1)/(switch01 + switch10).
func MMPP2Traffic(rate0, rate1, switch01, switch10 float64) Traffic {
	return Traffic{Kind: TrafficMMPP2, Rate0: rate0, Rate1: rate1,
		Switch01: switch01, Switch10: switch10}
}

// OnOffTraffic returns burst/idle traffic: Poisson arrivals at
// burstRate during exponentially distributed ON periods and silence in
// between. dutyCycle ∈ (0, 1) is the ON fraction and cycleTime the mean
// ON+OFF cycle length; the long-run mean rate is burstRate·dutyCycle.
func OnOffTraffic(burstRate, dutyCycle, cycleTime float64) Traffic {
	return Traffic{Kind: TrafficOnOff, BurstRate: burstRate,
		DutyCycle: dutyCycle, CycleTime: cycleTime}
}

// Service describes the shape of the bus service-time distribution:
// exponential (the paper's model and the default), deterministic (the
// fixed-width transfer of real hardware), Erlang-k (sub-exponential,
// SCV 1/k), or hyperexponential (bursty, SCV ≥ 1). It is a comparable
// value type that round-trips through JSON; see the constructor helpers
// ExponentialService, DeterministicService, ErlangService, and
// HyperexpService, and docs/service.md for each family's
// parameterization. All families have mean 1/Config.ServiceRate, so
// sweeping the shape at fixed rates holds the offered load constant.
type Service = servdist.Spec

// ServiceKind names a service-time family. It is a string-backed enum
// with String and JSON MarshalText/UnmarshalText: marshaling
// canonicalizes the empty zero value to "exponential" and rejects
// unknown names on both encode and decode.
type ServiceKind = servdist.Kind

// Service kinds accepted by Service.Kind. The empty string normalizes
// to ServiceExponential.
const (
	ServiceExponential   = servdist.KindExponential
	ServiceDeterministic = servdist.KindDeterministic
	ServiceErlang        = servdist.KindErlang
	ServiceHyperexp      = servdist.KindHyperexp
)

// ParseServiceKind maps a service-family name to its canonical kind.
// The empty string parses as ServiceExponential.
func ParseServiceKind(s string) (ServiceKind, error) { return servdist.ParseKind(s) }

// ExponentialService returns the default service shape: exponential
// transactions at Config.ServiceRate, the source paper's model (SCV 1).
func ExponentialService() Service { return Service{Kind: ServiceExponential} }

// DeterministicService returns fixed service times 1/Config.ServiceRate
// — the fixed-width bus transfer (SCV 0, the exact M/D/1 regime when
// buffered-infinite).
func DeterministicService() Service { return Service{Kind: ServiceDeterministic} }

// ErlangService returns Erlang-k service: the sum of k exponential
// stages of rate k·Config.ServiceRate, interpolating deterministic
// (k → ∞) and exponential (k = 1) with SCV 1/k.
func ErlangService(k int) Service { return Service{Kind: ServiceErlang, Shape: k} }

// HyperexpService returns two-branch balanced-means hyperexponential
// service pinned by its squared coefficient of variation scv ≥ 1 —
// the heavy-tailed regime where a few long transfers dominate the
// queue. scv = 1 is statistically exponential.
func HyperexpService(scv float64) Service { return Service{Kind: ServiceHyperexp, SCV: scv} }

// RareBurstMMPP2 returns the mean-preserving rare-burst MMPP2 shape the
// bursty curves sweep: a burst state occupied burstFrac of the time
// (mean dwell `dwell` per visit) arriving at ratio× the calm state's
// rate, both scaled so the stationary rate is exactly mean. ratio 1
// makes the two states identical — exactly Poisson at mean. Keeping
// burstFrac well below ½ is what makes burstiness bite: the same mean
// load concentrates into rare episodes intense enough that a few
// simultaneously bursting stations overload the bus, instead of
// averaging out across N independent sources.
func RareBurstMMPP2(mean, ratio, dwell, burstFrac float64) Traffic {
	rate0 := mean / (1 - burstFrac + burstFrac*ratio)
	switch01 := burstFrac / ((1 - burstFrac) * dwell) // calm→burst: calm dwell is dwell·(1−f)/f
	return MMPP2Traffic(rate0, ratio*rate0, switch01, 1/dwell)
}

// DefaultConfig returns the same baseline the functional options start
// from: 8 processors, one bus, λ=0.1, μ=1, unbuffered, Poisson traffic,
// round-robin, seed 1, horizon 100000 with a 10% warmup. Warmup is an
// absolute time, not a fraction — when deriving configs with a different
// horizon, use AtHorizon so the warmup rescales with it.
func DefaultConfig() Config {
	return Config{
		Processors:  8,
		Buses:       1,
		ThinkRate:   0.1,
		ServiceRate: 1.0,
		Service:     ExponentialService(),
		Mode:        ModeUnbuffered,
		BufferCap:   Infinite,
		Arbiter:     RoundRobin.String(),
		Traffic:     PoissonTraffic(),
		Seed:        1,
		Horizon:     100_000,
		Warmup:      10_000,
	}
}

// AtHorizon returns a copy with the horizon set to h and the warmup
// rescaled to keep its fraction of the run constant — the safe way to
// shorten or lengthen a derived config without tripping the
// warmup < horizon invariant or silently shrinking the truncated
// transient. A non-positive current horizon keeps the warmup untouched.
func (c Config) AtHorizon(h float64) Config {
	if c.Horizon > 0 {
		c.Warmup = c.Warmup / c.Horizon * h
	}
	c.Horizon = h
	return c
}

// ParseArbiter maps an arbiter name (as produced by ArbiterKind.String)
// back to its kind. The empty string parses as RoundRobin.
func ParseArbiter(s string) (ArbiterKind, error) {
	switch s {
	case "", "round-robin":
		return RoundRobin, nil
	case "fixed-priority":
		return FixedPriority, nil
	case "weighted-round-robin":
		return WeightedRoundRobin, nil
	default:
		return 0, fmt.Errorf("busnet: unknown arbiter %q", s)
	}
}

// ParseWeights parses a Config.Weights string — comma-separated integer
// weights ≥ 1, e.g. "4,2,1,1" — into the weight vector. The empty
// string parses as (nil, nil): use all-ones weights.
func ParseWeights(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ws := make([]int, len(parts))
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("busnet: weights[%d] = %q, need an integer", i, p)
		}
		if w < 1 {
			return nil, fmt.Errorf("busnet: weights[%d] = %d, need ≥ 1", i, w)
		}
		ws[i] = w
	}
	return ws, nil
}

// FormatWeights renders a weight vector as a Config.Weights string.
func FormatWeights(ws []int) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = strconv.Itoa(w)
	}
	return strings.Join(parts, ",")
}

// ParseMode maps a mode name to its canonical spelling — ModeUnbuffered
// or ModeBuffered — mirroring ParseArbiter and ParseBackend. The empty
// string parses as ModeUnbuffered, matching Config normalization.
func ParseMode(s string) (string, error) {
	m, err := parseMode(s)
	if err != nil {
		return "", err
	}
	if m == topo.Buffered {
		return ModeBuffered, nil
	}
	return ModeUnbuffered, nil
}

// parseMode maps a Mode string to the domain type; "" is unbuffered.
func parseMode(s string) (topo.Mode, error) {
	switch s {
	case "", ModeUnbuffered:
		return topo.Unbuffered, nil
	case ModeBuffered:
		return topo.Buffered, nil
	default:
		return 0, fmt.Errorf("busnet: unknown mode %q", s)
	}
}

// normalized fills the empty-string Mode/Arbiter/Traffic.Kind and
// zero-Buses defaults so every Network echoes canonical names.
func (c Config) normalized() Config {
	if c.Mode == "" {
		c.Mode = ModeUnbuffered
	}
	if c.Arbiter == "" {
		c.Arbiter = RoundRobin.String()
	}
	if c.Buses == 0 {
		c.Buses = 1
	}
	c.Traffic = c.Traffic.Normalized()
	c.Service = c.Service.Normalized()
	return c
}

// Normalized returns the config with empty Mode/Arbiter/Traffic/Service
// strings and zero Buses filled with their canonical defaults — the
// exact value a Network built from c would echo from Config(). Useful
// for comparing configs from different sources (literals, JSON, CLI
// flags) that mean the same operating point.
func (c Config) Normalized() Config { return c.normalized() }

// MeanThinkRate returns the long-run per-processor request rate the
// configured traffic generates — ThinkRate for poisson and
// deterministic shapes, the stationary modulated rate for MMPP2 and
// OnOff. N·MeanThinkRate/ServiceRate is the offered load to hold fixed
// when sweeping burstiness.
func (c Config) MeanThinkRate() float64 {
	return c.Traffic.MeanRate(c.ThinkRate)
}

// Validate reports the first configuration error, or nil. It checks
// the fields without building run state — no per-station sources, no
// default weight vector — so its cost does not grow with Processors.
func (c Config) Validate() error {
	if _, err := parseMode(c.Mode); err != nil {
		return err
	}
	kind, err := ParseArbiter(c.Arbiter)
	if err != nil {
		return err
	}
	ws, err := ParseWeights(c.Weights)
	if err != nil {
		return err
	}
	if kind == WeightedRoundRobin && ws != nil && len(ws) != c.Processors {
		return fmt.Errorf("busnet: %d weights for %d processors", len(ws), c.Processors)
	}
	switch {
	case c.Processors < 1:
		return fmt.Errorf("busnet: processors = %d, need ≥ 1", c.Processors)
	case c.Buses < 0:
		return fmt.Errorf("busnet: buses = %d, need ≥ 1 (or 0 for the single-bus default)", c.Buses)
	case math.IsNaN(c.ThinkRate) || c.ThinkRate < 0 || math.IsInf(c.ThinkRate, 1):
		// Traffic kinds that ignore ThinkRate still echo it as provenance,
		// so it must at least be a finite nonnegative number; kinds that
		// consume it additionally require > 0 (checked by Traffic.Validate).
		return fmt.Errorf("busnet: think rate = %v, need finite and ≥ 0", c.ThinkRate)
	case !(c.ServiceRate > 0) || math.IsInf(c.ServiceRate, 1):
		return fmt.Errorf("busnet: service rate = %v, need finite and > 0", c.ServiceRate)
	case c.Mode == ModeBuffered && c.BufferCap != Infinite && c.BufferCap < 1:
		return fmt.Errorf("busnet: buffer cap = %d, need ≥ 1 or %d (infinite)", c.BufferCap, Infinite)
	case !(c.Horizon > 0) || math.IsInf(c.Horizon, 1):
		// +Inf would make RunUntil spin forever; NaN fails the > 0 test.
		return fmt.Errorf("busnet: horizon = %v, need finite and > 0", c.Horizon)
	case math.IsNaN(c.Warmup) || c.Warmup < 0 || c.Warmup >= c.Horizon:
		// The explicit NaN check matters: NaN slips past both comparisons
		// and would otherwise reach JSON encoding, which rejects it.
		return fmt.Errorf("busnet: warmup = %v, need in [0, horizon)", c.Warmup)
	}
	if err := c.Traffic.Validate(c.ThinkRate); err != nil {
		return err
	}
	return c.Service.Validate(c.ServiceRate)
}

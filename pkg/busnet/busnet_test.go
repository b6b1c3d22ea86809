package busnet

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// Acceptance criterion: identical Results across two runs with the same
// seed, for both regimes and both arbiters — and a different seed must
// actually change the outcome.
func TestRunDeterminism(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"unbuffered/round-robin", []Option{WithUnbuffered(), WithArbiter(RoundRobin)}},
		{"unbuffered/fixed-priority", []Option{WithUnbuffered(), WithArbiter(FixedPriority)}},
		{"buffered-finite", []Option{WithBuffer(4)}},
		{"buffered-infinite", []Option{WithBuffer(Infinite)}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opts := append([]Option{
				WithProcessors(16),
				WithThinkRate(0.05),
				WithServiceRate(1),
				WithSeed(42),
				WithHorizon(5000),
			}, v.opts...)
			net, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			first, err := simResults(net.Config())
			if err != nil {
				t.Fatal(err)
			}
			second, err := simResults(net.Config())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("same seed, different Results:\n%+v\nvs\n%+v", first, second)
			}
			if first.Completions == 0 {
				t.Fatal("run produced no completions")
			}

			other, err := New(append(opts, WithSeed(43))...)
			if err != nil {
				t.Fatal(err)
			}
			reseeded, err := simResults(other.Config())
			if err != nil {
				t.Fatal(err)
			}
			if first.Completions == reseeded.Completions && first.MeanWait == reseeded.MeanWait {
				t.Fatal("different seed reproduced the same trajectory; RNG not wired through")
			}
		})
	}
}

// FromConfig and New are two doors into the same immutable Config →
// Network split: equal configs must produce bit-identical Results no
// matter how they were built.
func TestFromConfigMatchesOptions(t *testing.T) {
	net, err := New(
		WithProcessors(16),
		WithThinkRate(0.05),
		WithServiceRate(1),
		WithBuffer(4),
		WithSeed(42),
		WithHorizon(5000),
	)
	if err != nil {
		t.Fatal(err)
	}
	other, err := FromConfig(net.Config())
	if err != nil {
		t.Fatal(err)
	}
	a, err := simResults(net.Config())
	if err != nil {
		t.Fatal(err)
	}
	b, err := simResults(other.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("FromConfig(net.Config()) diverged from the original network:\n%+v\nvs\n%+v", a, b)
	}
}

// The warmup options obey last-option-wins like every other option, so
// a base option slice can be overridden by appending.
func TestWarmupOptionsLastWins(t *testing.T) {
	noWarm, err := New(WithHorizon(1000), WithWarmupFraction(0.1), WithWarmup(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := noWarm.Config().Warmup; got != 0 {
		t.Fatalf("WithWarmup(0) after WithWarmupFraction: warmup = %v, want 0", got)
	}
	frac, err := New(WithHorizon(1000), WithWarmup(0), WithWarmupFraction(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if got := frac.Config().Warmup; got != 200 {
		t.Fatalf("WithWarmupFraction(0.2) after WithWarmup: warmup = %v, want 200", got)
	}
}

func TestAtHorizonPreservesWarmupFraction(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(5000)
	if cfg.Horizon != 5000 || cfg.Warmup != 500 {
		t.Fatalf("AtHorizon(5000) = horizon %v warmup %v, want 5000/500", cfg.Horizon, cfg.Warmup)
	}
	if _, err := FromConfig(cfg); err != nil {
		t.Fatalf("rescaled config must stay valid: %v", err)
	}
	zero := Config{}.AtHorizon(100)
	if zero.Horizon != 100 || zero.Warmup != 0 {
		t.Fatalf("AtHorizon on a zero config = %+v, want horizon 100, warmup 0", zero)
	}
}

// A Config is a value: mutating the caller's copy after construction must
// not reach into the network, and empty mode/arbiter strings normalize.
func TestConfigIsImmutableValue(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(5000)
	cfg.Warmup = 0
	net, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Processors = 999
	if net.Config().Processors == 999 {
		t.Fatal("mutating the caller's Config leaked into the Network")
	}
	lit, err := FromConfig(Config{
		Processors: 4, ThinkRate: 0.1, ServiceRate: 1, Horizon: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := lit.Config()
	if got.Mode != ModeUnbuffered || got.Arbiter != RoundRobin.String() {
		t.Fatalf("empty mode/arbiter not normalized: %+v", got)
	}
}

// Streams of one seed must be independent (different trajectories) yet
// individually deterministic — the substructure replications build on.
func TestStreamsAreIndependentReplications(t *testing.T) {
	run := func(stream uint64) Results {
		res, err := mustRun(t,
			WithProcessors(8),
			WithThinkRate(0.1),
			WithServiceRate(1),
			WithSeed(42),
			WithStream(stream),
			WithHorizon(5000),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	s0, s1 := run(0), run(1)
	if s0.MeanWait == s1.MeanWait && s0.Completions == s1.Completions {
		t.Fatal("streams 0 and 1 produced identical trajectories; substreams not wired through")
	}
	if again := run(1); !reflect.DeepEqual(s1, again) {
		t.Fatal("same (seed, stream) produced different Results")
	}
	if s0.Config.Stream != 0 || s1.Config.Stream != 1 {
		t.Fatal("stream id not echoed in Results.Config")
	}
}

func TestNewRejectsInvalidOptions(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
	}{
		{"zero processors", []Option{WithProcessors(0)}},
		{"negative buses", []Option{WithBuses(-2)}},
		{"negative think rate", []Option{WithThinkRate(-0.1)}},
		{"zero service rate", []Option{WithServiceRate(0)}},
		{"zero horizon", []Option{WithHorizon(0)}},
		{"warmup past horizon", []Option{WithHorizon(100), WithWarmup(100)}},
		{"negative warmup", []Option{WithWarmup(-1)}},
		{"unknown arbiter", []Option{WithArbiter(ArbiterKind(99))}},
		{"unknown traffic kind", []Option{WithTraffic(Traffic{Kind: "pareto"})}},
		{"mmpp2 missing switches", []Option{WithTraffic(Traffic{Kind: TrafficMMPP2, Rate0: 1, Rate1: 2})}},
		{"onoff duty out of range", []Option{WithTraffic(OnOffTraffic(1, 1.5, 10))}},
		{"poisson with stray traffic params", []Option{WithTraffic(Traffic{Kind: TrafficPoisson, BurstRate: 2})}},
		{"deterministic zero think rate", []Option{WithThinkRate(0), WithTraffic(DeterministicTraffic())}},
		{"weight count mismatch", []Option{WithProcessors(4), WithWeights(1, 2)}},
		{"zero weight", []Option{WithProcessors(2), WithWeights(1, 0)}},
		{"warmup fraction ≥ 1", []Option{WithWarmupFraction(1)}},
		{"negative warmup fraction", []Option{WithWarmupFraction(-0.5)}},
		{"NaN warmup fraction", []Option{WithWarmupFraction(math.NaN())}},
		{"NaN warmup", []Option{WithWarmup(math.NaN())}},
		{"NaN horizon", []Option{WithHorizon(math.NaN())}},
		{"infinite horizon", []Option{WithHorizon(math.Inf(1))}},
		{"infinite think rate", []Option{WithThinkRate(math.Inf(1))}},
		{"infinite service rate", []Option{WithServiceRate(math.Inf(1))}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.opts...); err == nil {
				t.Fatal("invalid options accepted")
			}
		})
	}
}

func TestConfigEchoAndDefaults(t *testing.T) {
	net, err := New(WithProcessors(16), WithBuffer(4), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := net.Config()
	if cfg.Processors != 16 || cfg.BufferCap != 4 || cfg.Seed != 42 {
		t.Fatalf("config echo mismatch: %+v", cfg)
	}
	if cfg.Buses != 1 {
		t.Fatalf("default buses = %d, want 1", cfg.Buses)
	}
	multi, err := New(WithBuses(4))
	if err != nil {
		t.Fatal(err)
	}
	if multi.Config().Buses != 4 {
		t.Fatalf("WithBuses(4) echoed %d", multi.Config().Buses)
	}
	if cfg.Mode != "buffered" || cfg.Arbiter != "round-robin" {
		t.Fatalf("mode/arbiter = %q/%q, want buffered/round-robin", cfg.Mode, cfg.Arbiter)
	}
	if cfg.Warmup != cfg.Horizon/10 {
		t.Fatalf("default warmup = %v, want horizon/10 = %v", cfg.Warmup, cfg.Horizon/10)
	}
	// WithBuffer with a non-positive capacity normalizes to Infinite.
	inf, err := New(WithBuffer(0))
	if err != nil {
		t.Fatal(err)
	}
	if inf.Config().BufferCap != Infinite {
		t.Fatalf("WithBuffer(0) → cap %d, want Infinite", inf.Config().BufferCap)
	}
}

func TestFixedPriorityStarvesUnderSaturation(t *testing.T) {
	res, err := mustRun(t,
		WithProcessors(8),
		WithThinkRate(1), // offered load 8: the bus cannot keep up
		WithServiceRate(1),
		WithBuffer(2),
		WithArbiter(FixedPriority),
		WithSeed(7),
		WithHorizon(5000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Grants[0] < 4*res.Grants[7] {
		t.Fatalf("fixed priority under saturation: grants[0]=%d not ≫ grants[7]=%d",
			res.Grants[0], res.Grants[7])
	}
	rr, err := mustRun(t,
		WithProcessors(8),
		WithThinkRate(1),
		WithServiceRate(1),
		WithBuffer(2),
		WithArbiter(RoundRobin),
		WithSeed(7),
		WithHorizon(5000),
	)
	if err != nil {
		t.Fatal(err)
	}
	min, max := rr.Grants[0], rr.Grants[0]
	for _, g := range rr.Grants {
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if float64(max) > 1.2*float64(min) {
		t.Fatalf("round-robin under saturation should be fair: grants %v", rr.Grants)
	}
}

// Configs with traffic shapes and weights must survive a JSON round
// trip unchanged — the sweep engine and CLI serialize them into every
// report — and the deserialized config must run bit-identically.
func TestTrafficAndWeightsJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(4000)
	cfg.Processors = 4
	cfg.Traffic = MMPP2Traffic(0.05, 0.8, 0.01, 0.09)
	cfg.Arbiter = WeightedRoundRobin.String()
	cfg.Weights = "4,2,1,1"
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg { // Config is comparable — shapes and weights included
		t.Fatalf("round trip changed the config:\n%+v\nvs\n%+v", back, cfg)
	}
	a, err := runCfg(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCfg(t, back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("deserialized config ran a different trajectory")
	}
	// Old configs without the new fields keep working: the zero traffic
	// value normalizes to poisson.
	var legacy Config
	if err := json.Unmarshal([]byte(`{"processors":2,"think_rate":0.1,"service_rate":1,"horizon":1000}`), &legacy); err != nil {
		t.Fatal(err)
	}
	net, err := FromConfig(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Config().Traffic.Kind; got != TrafficPoisson {
		t.Fatalf("legacy config traffic normalized to %q, want %q", got, TrafficPoisson)
	}
}

// Weights on a non-weighted arbiter are documented as inert: the run
// must be bit-identical to the same config without them, so grids can
// hold a weight vector fixed while sweeping arbiters.
func TestWeightsInertForOtherArbiters(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(4000)
	cfg.Seed = 42
	with := cfg
	with.Weights = "5,1,1,1,1,1,1,1"
	a, err := runCfg(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCfg(t, with)
	if err != nil {
		t.Fatal(err)
	}
	a.Config, b.Config = Config{}, Config{}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("weights changed a round-robin run; they must be inert off the weighted arbiter")
	}
	// But malformed weights are rejected even when inert.
	bad := cfg
	bad.Weights = "1,x,3"
	if _, err := FromConfig(bad); err == nil {
		t.Fatal("malformed weights accepted on a round-robin config")
	}
}

// Weighted round-robin through the public API: saturated grant shares
// track the weights, and the default (empty) weight vector is exactly
// round-robin.
func TestWeightedRoundRobinFacade(t *testing.T) {
	// Buffers deeper than the largest weight keep every interface
	// supplied through its whole grant window; a shallower buffer would
	// starve the heavy station mid-window and flatten the shares.
	res, err := mustRun(t,
		WithProcessors(4),
		WithThinkRate(2), // saturating
		WithServiceRate(1),
		WithBuffer(8),
		WithWeights(6, 2, 1, 1),
		WithSeed(9),
		WithHorizon(20_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(0)
	for _, g := range res.Grants {
		total += g
	}
	for i, w := range []float64{6, 2, 1, 1} {
		share := float64(res.Grants[i]) / float64(total)
		want := w / 10
		if math.Abs(share-want) > 0.02 {
			t.Errorf("processor %d share %.3f, want %.3f ± 0.02 (grants %v)", i, share, want, res.Grants)
		}
	}

	// Empty weights on the weighted arbiter ≡ plain round-robin, grant
	// for grant: identical Results except the echoed config.
	base := DefaultConfig().AtHorizon(5000)
	base.Seed = 42
	weighted := base
	weighted.Arbiter = WeightedRoundRobin.String()
	a, err := runCfg(t, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCfg(t, weighted)
	if err != nil {
		t.Fatal(err)
	}
	a.Config, b.Config = Config{}, Config{}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("weighted round-robin with default weights diverged from round-robin")
	}
}

func TestPredictRejectsNonPoissonTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Traffic = MMPP2Traffic(0.1, 0.1, 0.01, 0.01)
	if _, err := analyticOf(cfg); err == nil {
		t.Fatal("the analytic backend attached a Poisson closed form to MMPP2 traffic")
	}
	cfg.Traffic = DeterministicTraffic()
	if _, err := analyticOf(cfg); err == nil {
		t.Fatal("the analytic backend attached a Poisson closed form to deterministic traffic")
	}
}

func mustRun(t *testing.T, opts ...Option) (Results, error) {
	t.Helper()
	net, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return simResults(net.Config())
}

// runCfg runs a literal Config through FromConfig, fatally on error.
func runCfg(t *testing.T, cfg Config) (Results, error) {
	t.Helper()
	net, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return simResults(net.Config())
}

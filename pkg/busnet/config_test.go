package busnet

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// Config.Validate owns the flat domain checks — processors, buses,
// rates, mode, buffer capacity, weights — and reports each with a
// busnet error naming the field.
func TestConfigValidate(t *testing.T) {
	valid := DefaultConfig()
	valid.Mode = ModeBuffered
	valid.BufferCap = 2
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero processors", func(c *Config) { c.Processors = 0 }, "processors"},
		{"negative buses", func(c *Config) { c.Buses = -1 }, "buses"},
		{"NaN think rate", func(c *Config) { c.ThinkRate = math.NaN() }, "think rate"},
		{"negative think rate", func(c *Config) { c.ThinkRate = -1 }, "think rate"},
		{"infinite think rate", func(c *Config) { c.ThinkRate = math.Inf(1) }, "think rate"},
		{"zero service rate", func(c *Config) { c.ServiceRate = 0 }, "service rate"},
		{"infinite service rate", func(c *Config) { c.ServiceRate = math.Inf(1) }, "service rate"},
		{"unknown mode", func(c *Config) { c.Mode = "half-duplex" }, "unknown mode"},
		{"zero buffer cap", func(c *Config) { c.BufferCap = 0 }, "buffer cap"},
		{"negative buffer cap", func(c *Config) { c.BufferCap = -2 }, "buffer cap"},
		{"weight count mismatch", func(c *Config) {
			c.Arbiter = WeightedRoundRobin.String()
			c.Weights = "1,2"
		}, "2 weights for 8 processors"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	// Buffer capacity is a buffered-mode field: unbuffered configs
	// ignore it.
	unbuffered := valid
	unbuffered.Mode = ModeUnbuffered
	unbuffered.BufferCap = 0
	if err := unbuffered.Validate(); err != nil {
		t.Errorf("unbuffered config with buffer cap 0 rejected: %v", err)
	}
}

// Validation reads fields and builds no run state, so it costs the same
// at any population: a fluid-scale config validates, and the fluid
// backend evaluates or refuses it, without per-station allocations —
// neither a default weight vector nor one traffic source per station.
func TestValidateBoundedMemory(t *testing.T) {
	const n = 5_000_000
	const budget = 64 << 10
	weighted := DefaultConfig()
	weighted.Processors = n
	weighted.Arbiter = WeightedRoundRobin.String() // empty Weights: all ones
	bursty := DefaultConfig()
	bursty.Processors = n
	bursty.Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05) // refused by fluid
	for _, tc := range []struct {
		name      string
		cfg       Config
		fluidErrs bool
	}{
		{"default weighted-round-robin weights", weighted, false},
		{"mmpp2 traffic", bursty, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := tc.cfg.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			_, err := Evaluate(tc.cfg, BackendFluid)
			runtime.ReadMemStats(&after)
			if (err != nil) != tc.fluidErrs {
				t.Fatalf("Evaluate(fluid) error = %v, want error: %v", err, tc.fluidErrs)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("Validate + Evaluate(fluid) at N = %d allocated %d bytes, want ≤ %d", n, got, budget)
			}
		})
	}
}

package busnet

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzConfigValidate drives Config.Validate and the JSON round trip
// with field-level inputs: Validate must never panic, and any config it
// accepts must survive marshal → unmarshal unchanged, still validate,
// and yield an analytic evaluation that either errors cleanly or returns a finite
// prediction. Huge population/capacity values are skipped rather than
// validated — they are legal configs whose closed forms and source
// allocation are deliberately O(N·cap), which a fuzzer would turn into
// an out-of-memory, not a finding.
func FuzzConfigValidate(f *testing.F) {
	seed := func(cfg Config) {
		f.Add(cfg.Processors, cfg.Buses, cfg.ThinkRate, cfg.ServiceRate,
			cfg.Mode, cfg.BufferCap, cfg.Arbiter, cfg.Weights,
			string(cfg.Traffic.Kind), cfg.Traffic.Rate0, cfg.Traffic.Rate1,
			cfg.Traffic.Switch01, cfg.Traffic.Switch10,
			cfg.Traffic.BurstRate, cfg.Traffic.DutyCycle, cfg.Traffic.CycleTime,
			string(cfg.Service.Kind), cfg.Service.Shape, cfg.Service.SCV,
			cfg.Horizon, cfg.Warmup, cfg.Quantiles)
	}
	seed(DefaultConfig())
	fluidish := DefaultConfig()
	fluidish.Processors = 256
	fluidish.Buses = 4
	fluidish.ThinkRate = 0.1
	fluidish.Quantiles = true
	seed(fluidish)
	bursty := DefaultConfig()
	bursty.Mode = ModeBuffered
	bursty.BufferCap = 4
	bursty.Buses = 4
	bursty.Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
	seed(bursty)
	weighted := DefaultConfig()
	weighted.Arbiter = WeightedRoundRobin.String()
	weighted.Weights = "4,2,1,1,1,1,1,1"
	seed(weighted)
	onoff := DefaultConfig()
	onoff.Traffic = OnOffTraffic(0.5, 0.25, 100)
	seed(onoff)
	hyper := DefaultConfig()
	hyper.Mode = ModeBuffered
	hyper.BufferCap = Infinite
	hyper.Service = HyperexpService(4)
	seed(hyper)
	erl := DefaultConfig()
	erl.Service = ErlangService(4)
	seed(erl)

	f.Fuzz(func(t *testing.T, processors, buses int, think, service float64,
		mode string, bufferCap int, arbiter, weights, kind string,
		rate0, rate1, sw01, sw10, burst, duty, cycle float64,
		svcKind string, svcShape int, svcSCV float64,
		horizon, warmup float64, quantiles bool) {
		cfg := Config{
			Processors:  processors,
			Buses:       buses,
			ThinkRate:   think,
			ServiceRate: service,
			Mode:        mode,
			BufferCap:   bufferCap,
			Arbiter:     arbiter,
			Weights:     weights,
			Traffic: Traffic{Kind: TrafficKind(kind), Rate0: rate0, Rate1: rate1,
				Switch01: sw01, Switch10: sw10,
				BurstRate: burst, DutyCycle: duty, CycleTime: cycle},
			Service:   Service{Kind: ServiceKind(svcKind), Shape: svcShape, SCV: svcSCV},
			Seed:      1,
			Horizon:   horizon,
			Warmup:    warmup,
			Quantiles: quantiles,
		}
		if cfg.Processors > 1<<12 || cfg.BufferCap > 1<<12 || cfg.Buses > 1<<12 ||
			len(cfg.Weights) > 1<<12 {
			t.Skip("legal but deliberately O(N·cap) — not a robustness finding")
		}
		if err := cfg.Validate(); err != nil {
			return // rejected cleanly; nothing more to hold
		}
		net, err := FromConfig(cfg)
		if err != nil {
			t.Fatalf("Validate accepted a config FromConfig rejects: %v\n%+v", err, cfg)
		}
		canon := net.Config()
		blob, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("canonical config does not marshal: %v\n%+v", err, canon)
		}
		var back Config
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("marshaled config does not unmarshal: %v\n%s", err, blob)
		}
		if back != canon {
			t.Fatalf("JSON round trip changed the config:\n%+v\nvs\n%+v", back, canon)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped config no longer validates: %v\n%s", err, blob)
		}
		if pred, err := analyticOf(canon); err == nil {
			for name, v := range map[string]float64{
				"utilization": pred.Utilization, "throughput": pred.Throughput,
				"mean_wait": pred.MeanWait, "mean_queue_len": pred.MeanQueueLen,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("the analytic backend returned non-finite %s = %v for valid config %+v", name, v, canon)
				}
			}
		}
		// The fluid backend holds to the same contract: refuse cleanly
		// outside its domain, never emit a non-finite number inside it.
		if fp, err := fluidOf(canon); err == nil {
			for name, v := range map[string]float64{
				"utilization": fp.Utilization, "throughput": fp.Throughput,
				"mean_wait": fp.MeanWait, "mean_queue_len": fp.MeanQueueLen,
				"blocked": fp.Blocked,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("the fluid backend returned non-finite %s = %v for valid config %+v", name, v, canon)
				}
			}
		}
	})
}

package busnet

import (
	"reflect"
	"testing"
)

// simResults, analyticOf and fluidOf evaluate cfg on one backend and
// return that backend's payload.
func simResults(cfg Config) (Results, error) {
	ev, err := Evaluate(cfg, BackendSim)
	if err != nil {
		return Results{}, err
	}
	return *ev.Results, nil
}

func analyticOf(cfg Config) (Prediction, error) {
	ev, err := Evaluate(cfg, BackendAnalytic)
	if err != nil {
		return Prediction{}, err
	}
	return *ev.Analytic, nil
}

func fluidOf(cfg Config) (FluidPrediction, error) {
	ev, err := Evaluate(cfg, BackendFluid)
	if err != nil {
		return FluidPrediction{}, err
	}
	return *ev.Fluid, nil
}

// Evaluate carries each backend's output unchanged — payloads, summary
// fields, and errors alike — and a Network evaluates its config exactly
// like the literal config it was built from.
func TestEvaluateSubsumesRun(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(5000)
	cfg.Seed = 42
	cfg.Quantiles = true
	direct, err := runSim(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(cfg, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Backend != BackendSim || ev.Results == nil || ev.Analytic != nil || ev.Fluid != nil {
		t.Fatalf("sim evaluation payload shape: %+v", ev)
	}
	if !reflect.DeepEqual(*ev.Results, direct) {
		t.Fatalf("Evaluate sim results diverged from the simulator:\n%+v\nvs\n%+v", *ev.Results, direct)
	}
	if ev.Utilization != direct.Utilization || ev.Throughput != direct.Throughput ||
		ev.MeanWait != direct.MeanWait || ev.MeanResponse != direct.MeanResponse ||
		ev.MeanQueueLen != direct.MeanQueueLen {
		t.Errorf("summary fields diverged from Results: %+v", ev)
	}
	net, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaNet, err := simResults(net.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaNet, direct) {
		t.Fatalf("Network config diverged from the literal config:\n%+v\nvs\n%+v", viaNet, direct)
	}
}

func TestEvaluateSubsumesPredict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeBuffered
	cfg.BufferCap = Infinite
	direct, err := predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(cfg, BackendAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Backend != BackendAnalytic || ev.Analytic == nil || ev.Results != nil || ev.Fluid != nil {
		t.Fatalf("analytic evaluation payload shape: %+v", ev)
	}
	if *ev.Analytic != direct {
		t.Fatalf("Evaluate analytic diverged from the closed form: %+v vs %+v", *ev.Analytic, direct)
	}
	if ev.MeanResponse != direct.MeanResponse || ev.Utilization != direct.Utilization {
		t.Errorf("summary fields diverged: %+v", ev)
	}
	// Error cases must match too: same domain, same message.
	bad := cfg
	bad.Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
	_, errDirect := predict(bad)
	_, errEval := Evaluate(bad, BackendAnalytic)
	if errDirect == nil || errEval == nil || errDirect.Error() != errEval.Error() {
		t.Errorf("analytic error mismatch: %v vs %v", errDirect, errEval)
	}
}

func TestEvaluateSubsumesFluidPredict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processors = 64
	direct, err := fluidPredict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(cfg, BackendFluid)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Backend != BackendFluid || ev.Fluid == nil || ev.Results != nil || ev.Analytic != nil {
		t.Fatalf("fluid evaluation payload shape: %+v", ev)
	}
	if *ev.Fluid != direct {
		t.Fatalf("Evaluate fluid diverged from the mean-field model: %+v vs %+v", *ev.Fluid, direct)
	}
	bad := cfg
	bad.Mode = ModeBuffered
	bad.BufferCap = Infinite
	_, errDirect := fluidPredict(bad)
	_, errEval := Evaluate(bad, BackendFluid)
	if errDirect == nil || errEval == nil || errDirect.Error() != errEval.Error() {
		t.Errorf("fluid error mismatch: %v vs %v", errDirect, errEval)
	}
}

// The zero backend resolves to simulation, and unknown backends are
// refused before any work happens.
func TestEvaluateBackendResolution(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(2000)
	ev, err := Evaluate(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Backend != BackendSim || ev.Results == nil {
		t.Fatalf("zero backend resolved to %+v", ev.Backend)
	}
	if _, err := Evaluate(cfg, Backend("warp")); err == nil {
		t.Error("unknown backend accepted")
	}
}

// Evaluate with equal (config, backend) is deterministic.
func TestEvaluateDeterministic(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(3000)
	cfg.Seed = 9
	a, err := Evaluate(cfg, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(cfg, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs produced different evaluations")
	}
}

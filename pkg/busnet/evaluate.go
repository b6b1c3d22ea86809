package busnet

import "github.com/busnet/busnet/internal/obs"

// Evaluation is the backend-independent answer to "what does this
// operating point look like?". The five summary fields are populated
// for every backend, so sweep code and CLIs can compare backends
// without switching on payload shape; exactly one of the payload
// pointers is non-nil and carries the backend's full detail.
type Evaluation struct {
	// Backend is the resolved backend that produced this evaluation
	// (never empty: the zero Backend resolves to BackendSim).
	Backend Backend `json:"backend"`

	// The shared steady-state summary, identical in meaning across
	// backends: time-averaged busy-bus fraction, completed requests per
	// unit time, mean wait (issue to service start), mean response
	// (issue to completion), and mean number waiting (excluding
	// in-service).
	Utilization  float64 `json:"utilization"`
	Throughput   float64 `json:"throughput"`
	MeanWait     float64 `json:"mean_wait"`
	MeanResponse float64 `json:"mean_response"`
	MeanQueueLen float64 `json:"mean_queue_len"`

	// Results is the full simulation payload (BackendSim only).
	Results *Results `json:"results,omitempty"`
	// Analytic is the closed-form payload (BackendAnalytic only).
	Analytic *Prediction `json:"analytic,omitempty"`
	// Fluid is the mean-field payload (BackendFluid only).
	Fluid *FluidPrediction `json:"fluid,omitempty"`
	// Diagnostics is the run's deterministic engine/model counter block
	// (BackendSim only — closed-form backends fire no events). It covers
	// the whole run from time zero, not the warmup-truncated interval.
	Diagnostics *Diagnostics `json:"diagnostics,omitempty"`
}

// Evaluate is the single entry point for evaluating a flat (one-bus-
// segment) configuration with any backend. The backend argument
// accepts the zero value ("" resolves to BackendSim, matching
// ParseBackend) so callers can thread a Backend straight from JSON or
// flags.
//
// Backend domains differ: the analytic backend refuses non-Poisson
// traffic, and non-exponential service outside the single-bus
// buffered-infinite (M/G/1) regime (see docs/service.md); the fluid
// backend refuses everything its symmetric mean-field balance cannot
// represent (see docs/fluid.md). The simulator accepts any valid
// Config up to MaxSimProcessors stations.
func Evaluate(cfg Config, backend Backend) (Evaluation, error) {
	return EvaluateTraced(cfg, backend, nil)
}

// EvaluateTraced is Evaluate with a flight recorder attached to the
// simulation's probe seams, capturing engine, arbitration, and (for
// completeness of the shared recorder type) bridge events. rec may be
// nil, in which case it behaves exactly like Evaluate. Tracing is a
// simulation-level facility: a non-nil recorder with an analytic or
// fluid backend is refused rather than silently ignored.
func EvaluateTraced(cfg Config, backend Backend, rec *FlightRecorder) (Evaluation, error) {
	b, err := traceableBackend(backend, rec)
	if err != nil {
		return Evaluation{}, err
	}
	switch b {
	case BackendAnalytic:
		p, err := predict(cfg)
		if err != nil {
			return Evaluation{}, err
		}
		return Evaluation{
			Backend:      b,
			Utilization:  p.Utilization,
			Throughput:   p.Throughput,
			MeanWait:     p.MeanWait,
			MeanResponse: p.MeanResponse,
			MeanQueueLen: p.MeanQueueLen,
			Analytic:     &p,
		}, nil
	case BackendFluid:
		p, err := fluidPredict(cfg)
		if err != nil {
			return Evaluation{}, err
		}
		return Evaluation{
			Backend:      b,
			Utilization:  p.Utilization,
			Throughput:   p.Throughput,
			MeanWait:     p.MeanWait,
			MeanResponse: p.MeanResponse,
			MeanQueueLen: p.MeanQueueLen,
			Fluid:        &p,
		}, nil
	}
	res, err := runSim(cfg, rec)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{
		Backend:      b,
		Utilization:  res.Utilization,
		Throughput:   res.Throughput,
		MeanWait:     res.MeanWait,
		MeanResponse: res.MeanResponse,
		MeanQueueLen: res.MeanQueueLen,
		Results:      &res,
		Diagnostics:  res.Diagnostics,
	}, nil
}

// runSim is the discrete-event backend for a flat config: it runs the
// config's one-node topology through simulate and reads segment 0.
// Deterministic in (Config, Seed, Stream); every field of Results
// covers the measured interval [warmup, horizon] only, except
// Diagnostics, which covers the whole run.
func runSim(cfg Config, rec *obs.Recorder) (Results, error) {
	cfg, err := simulable(cfg)
	if err != nil {
		return Results{}, err
	}
	// A valid flat config lifts to a topology that passes check, so it
	// goes straight to simulate.
	var node [1]Node
	fab, events, diag, err := simulate(cfg.lift(&node), rec)
	if err != nil {
		return Results{}, err
	}
	m := fab.SegmentSnapshot(0)
	return Results{
		Config:            cfg,
		MeasuredTime:      fab.Elapsed(),
		Events:            events,
		Issued:            m.Issued,
		Completions:       m.Completions,
		Throughput:        m.Throughput,
		Utilization:       m.Utilization,
		BusUtilization:    m.BusUtilization,
		MeanQueueLen:      m.MeanQueueLen,
		MaxQueueLen:       m.MaxQueueLen,
		MeanWait:          m.MeanWait,
		WaitStdDev:        m.WaitStdDev,
		MaxWait:           m.MaxWait,
		MeanResponse:      m.MeanResponse,
		WaitQuantiles:     QuantilesFrom(m.WaitHist),
		ResponseQuantiles: QuantilesFrom(m.RespHist),
		WaitHistogram:     m.WaitHist,
		ResponseHistogram: m.RespHist,
		Grants:            m.Grants,
		Diagnostics:       diag,
	}, nil
}

package busnet

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/busnet/busnet/internal/analytic"
)

// openTandemFor evaluates the exact open-tandem product form the chain
// overlay must reproduce.
func openTandemFor(lambda float64, mu []float64) (TandemPrediction, error) {
	return analytic.OpenTandem(lambda, mu, nil)
}

// The topology subsystem's backward-compatibility contract: lifting a
// flat Config into its one-node Topology and evaluating it replays the
// flat simulation bit for bit — same RNG draws, same event order, same
// statistics. Runs over the same goldenRuns table that pins the flat
// path to the pre-fabric engine, so the chain golden → flat → topology
// is pinned end to end.
func TestOneNodeTopologyBitIdenticalToFlat(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultConfig().AtHorizon(5000)
			cfg.Seed = 42
			g.mutate(&cfg)
			flat, err := runCfg(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := EvaluateTopology(cfg.Topology(), BackendSim)
			if err != nil {
				t.Fatal(err)
			}
			res := ev.Results
			if res == nil || len(res.Hops) != 1 || len(res.Flows) != 1 {
				t.Fatalf("one-node topology produced %+v", ev)
			}
			hop := res.Hops[0]
			exact := []struct {
				name      string
				got, want float64
			}{
				{"utilization", hop.Utilization, flat.Utilization},
				{"throughput", hop.Throughput, flat.Throughput},
				{"mean_queue_len", hop.MeanQueueLen, flat.MeanQueueLen},
				{"max_queue_len", hop.MaxQueueLen, flat.MaxQueueLen},
				{"mean_wait", hop.MeanWait, flat.MeanWait},
				{"wait_std_dev", hop.WaitStdDev, flat.WaitStdDev},
				{"max_wait", hop.MaxWait, flat.MaxWait},
				{"mean_response", hop.MeanResponse, flat.MeanResponse},
				{"flow_mean_response", res.Flows[0].MeanResponse, flat.MeanResponse},
				{"measured_time", res.MeasuredTime, flat.MeasuredTime},
				{"summary_throughput", ev.Throughput, flat.Throughput},
				{"summary_mean_response", ev.MeanResponse, flat.MeanResponse},
			}
			for _, f := range exact {
				if f.got != f.want {
					t.Errorf("%s = %v, want the flat path's %v (diff %g)",
						f.name, f.got, f.want, math.Abs(f.got-f.want))
				}
			}
			if hop.Issued != flat.Issued || hop.Completions != flat.Completions || res.Events != flat.Events {
				t.Errorf("issued/completions/events = %d/%d/%d, want flat %d/%d/%d",
					hop.Issued, hop.Completions, res.Events, flat.Issued, flat.Completions, flat.Events)
			}
			if !reflect.DeepEqual(hop.Grants, flat.Grants) {
				t.Errorf("grants = %v, want %v", hop.Grants, flat.Grants)
			}
			if !reflect.DeepEqual(hop.BusUtilization, flat.BusUtilization) {
				t.Errorf("bus utilization = %v, want %v", hop.BusUtilization, flat.BusUtilization)
			}
			if hop.Blocked != 0 {
				t.Errorf("one-node topology reported blocked = %v", hop.Blocked)
			}
		})
	}
}

// Quantile collection must agree between the flat path and the lifted
// one-node topology too — histograms are part of the contract.
func TestOneNodeTopologyQuantilesMatchFlat(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(5000)
	cfg.Seed = 42
	cfg.Quantiles = true
	flat, err := runCfg(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateTopology(cfg.Topology(), BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	hop := ev.Results.Hops[0]
	if hop.WaitHist == nil || flat.WaitHistogram == nil {
		t.Fatal("quantile collection did not run on both paths")
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := hop.WaitHist.Quantile(q), flat.WaitHistogram.Quantile(q); got != want {
			t.Errorf("wait p%v = %v, want %v", 100*q, got, want)
		}
		if got, want := ev.Results.Flows[0].RespHist.Quantile(q), flat.ResponseHistogram.Quantile(q); got != want {
			t.Errorf("flow response p%v = %v, want %v", 100*q, got, want)
		}
	}
}

// chainTopology is the canonical 2-hop test fabric: n buffered-infinite
// processors on "cpu", every request then crossing a depth-slot bridge
// into "mem".
func chainTopology(n int, lambda, mu0, mu1 float64, depth int) Topology {
	t, err := NewTopology().
		BufferedSourceNode("cpu", n, lambda, mu0, Infinite, "mem").
		TransitNode("mem", mu1).
		Bridge("cpu", "mem", depth).
		Seed(7).
		Horizon(20000).
		Build()
	if err != nil {
		panic(err)
	}
	return t
}

func TestTopologyBuilderBuildsValidChain(t *testing.T) {
	top := chainTopology(8, 0.05, 1, 1.25, 4)
	if len(top.Nodes) != 2 || len(top.Links) != 1 {
		t.Fatalf("builder produced %+v", top)
	}
	if top.Warmup != 2000 {
		t.Errorf("Horizon did not rescale warmup: %v", top.Warmup)
	}
	ev, err := EvaluateTopology(top, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Results.Hops) != 2 || len(ev.Results.Flows) != 1 {
		t.Fatalf("chain produced %d hops, %d flows", len(ev.Results.Hops), len(ev.Results.Flows))
	}
	if ev.Throughput <= 0 || ev.MeanResponse <= 0 {
		t.Errorf("summary = %+v", ev)
	}
	// The end-to-end response covers both hops.
	if ev.MeanResponse < ev.Results.Hops[0].MeanResponse || ev.MeanResponse < ev.Results.Hops[1].MeanResponse {
		t.Errorf("e2e response %v below a hop response", ev.MeanResponse)
	}
}

// Topologies round-trip through JSON: unmarshal(marshal(t)) evaluates
// to the bit-identical trajectory.
func TestTopologyJSONRoundTrip(t *testing.T) {
	top := chainTopology(6, 0.06, 1, 1, 2)
	top.Quantiles = true
	data, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top.Normalized(), back.Normalized()) {
		t.Fatalf("round trip changed the topology:\n%+v\nvs\n%+v", top, back)
	}
	a, err := EvaluateTopology(top, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateTopology(back, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("round-tripped topology ran a different trajectory")
	}
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Topology)
		want   string
	}{
		{"no nodes", func(tp *Topology) { tp.Nodes = nil }, "no nodes"},
		{"unnamed node", func(tp *Topology) { tp.Nodes[0].Name = "" }, "has no name"},
		{"duplicate name", func(tp *Topology) { tp.Nodes[1].Name = "cpu" }, "share the name"},
		{"unknown arbiter", func(tp *Topology) { tp.Nodes[0].Arbiter = "lottery" }, "unknown arbiter"},
		{"unknown mode", func(tp *Topology) { tp.Nodes[0].Mode = "half-duplex" }, "unknown mode"},
		{"bad weights", func(tp *Topology) {
			tp.Nodes[0].Arbiter = WeightedRoundRobin.String()
			tp.Nodes[0].Weights = "1,2"
		}, "claimants"},
		{"link to nowhere", func(tp *Topology) { tp.Links[0].To = "disk" }, `no node named "disk"`},
		{"route to nowhere", func(tp *Topology) { tp.Nodes[0].Route = []string{"disk"} }, `no node named "disk"`},
		{"bad horizon", func(tp *Topology) { tp.Horizon = 0 }, "horizon"},
		{"warmup past horizon", func(tp *Topology) { tp.Warmup = tp.Horizon }, "warmup"},
		{"route without link", func(tp *Topology) { tp.Links[0].From = "mem"; tp.Links[0].To = "cpu" }, "needs a link"},
		{"cycle", func(tp *Topology) {
			tp.Links = append(tp.Links, Link{From: "mem", To: "cpu", Buffer: 1})
			tp.Nodes[1].Processors = 1
			tp.Nodes[1].ThinkRate = 0.1
			tp.Nodes[1].Mode = ModeBuffered
			tp.Nodes[1].BufferCap = Infinite
			tp.Nodes[1].Route = []string{"cpu"}
		}, "cycle"},
		{"bad service", func(tp *Topology) { tp.Nodes[1].ServiceRate = -1 }, "service rate"},
		{"processor total wraps around", func(tp *Topology) {
			// Bursty traffic makes the lowering build one source per
			// processor, so an unbounded node must be refused before it.
			tp.Nodes[0].Processors = math.MaxInt
			tp.Nodes[0].Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
			tp.Nodes[1].Processors = -math.MaxInt
		}, "processors"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			top := chainTopology(4, 0.1, 1, 1, 2)
			tt.mutate(&top)
			err := top.Validate()
			if err == nil {
				t.Fatalf("accepted %+v", top)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// PredictTopology on a one-node buffered-infinite topology must agree
// exactly with the flat analytic backend — the overlay may not fork the math.
func TestPredictTopologyOneNodeMatchesFlat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeBuffered
	cfg.BufferCap = Infinite
	cfg.Processors = 16
	cfg.ThinkRate = 0.05
	flat, err := analyticOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PredictTopology(cfg.Topology())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 1 || len(p.Flows) != 1 {
		t.Fatalf("got %+v", p)
	}
	if p.Nodes[0].Prediction != flat {
		t.Errorf("one-node overlay = %+v, want the flat analytic %+v", p.Nodes[0].Prediction, flat)
	}
	if p.Flows[0].MeanResponse != flat.MeanResponse || p.MeanResponse != flat.MeanResponse {
		t.Errorf("flow response %v / %v, want %v", p.Flows[0].MeanResponse, p.MeanResponse, flat.MeanResponse)
	}
	if p.Throughput != flat.Throughput {
		t.Errorf("throughput %v, want %v", p.Throughput, flat.Throughput)
	}
}

// The 2-hop overlay is the open tandem: per-node forms and the summed
// end-to-end response must equal analytic.OpenTandem's exactly.
func TestPredictTopologyChainIsOpenTandem(t *testing.T) {
	top := chainTopology(12, 0.05, 1, 1.25, Infinite)
	p, err := PredictTopology(top)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregate rate is computed the same way the overlay computes
	// it (N·λ in floating point), so the comparison stays bit-exact.
	want, err := openTandemFor(float64(12)*0.05, []float64{1, 1.25})
	if err != nil {
		t.Fatal(err)
	}
	for k := range p.Nodes {
		if p.Nodes[k].HopPrediction != want.Hops[k] {
			t.Errorf("node %d = %+v, want tandem hop %+v", k, p.Nodes[k].HopPrediction, want.Hops[k])
		}
	}
	if p.MeanResponse != want.MeanResponse {
		t.Errorf("e2e response %v, want tandem %v", p.MeanResponse, want.MeanResponse)
	}
	if p.Throughput != want.Throughput {
		t.Errorf("throughput %v, want %v", p.Throughput, want.Throughput)
	}
	// The analytic backend routes through the same overlay.
	ev, err := EvaluateTopology(top, BackendAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Analytic == nil || !reflect.DeepEqual(*ev.Analytic, p) {
		t.Errorf("EvaluateTopology analytic payload diverged from PredictTopology")
	}
	if ev.MeanResponse != p.MeanResponse || ev.Throughput != p.Throughput {
		t.Errorf("summary (%v, %v) != prediction (%v, %v)",
			ev.Throughput, ev.MeanResponse, p.Throughput, p.MeanResponse)
	}
}

func TestPredictTopologyDomain(t *testing.T) {
	reject := []struct {
		name   string
		mutate func(*Topology)
		want   string
	}{
		{"unbuffered interfaces", func(tp *Topology) {
			tp.Nodes[0].Mode = ModeUnbuffered
			tp.Nodes[0].BufferCap = 0
		}, "buffered-infinite"},
		{"finite interfaces", func(tp *Topology) { tp.Nodes[0].BufferCap = 8 }, "buffered-infinite"},
		{"bursty traffic", func(tp *Topology) {
			tp.Nodes[0].Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
		}, "traffic"},
		{"deterministic service", func(tp *Topology) {
			tp.Nodes[1].Service = DeterministicService()
		}, "service"},
		{"unstable hop", func(tp *Topology) { tp.Nodes[1].ServiceRate = 0.5 }, "node \"mem\""},
	}
	for _, tt := range reject {
		t.Run(tt.name, func(t *testing.T) {
			top := chainTopology(12, 0.05, 1, 1.25, Infinite)
			tt.mutate(&top)
			_, err := PredictTopology(top)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	if _, err := EvaluateTopology(chainTopology(4, 0.05, 1, 1, 2), BackendFluid); err == nil {
		t.Error("fluid backend accepted a topology")
	}
	if _, err := EvaluateTopology(chainTopology(4, 0.05, 1, 1, 2), Backend("warp")); err == nil {
		t.Error("unknown backend accepted")
	}
}

// Evaluating with the zero backend resolves to simulation, mirroring
// ParseBackend's "" → sim rule.
func TestEvaluateTopologyZeroBackendIsSim(t *testing.T) {
	top := chainTopology(4, 0.05, 1, 1, 2)
	a, err := EvaluateTopology(top, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Backend != BackendSim || a.Results == nil {
		t.Fatalf("zero backend resolved to %+v", a)
	}
}

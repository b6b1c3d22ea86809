package topo

import (
	"math"
	"reflect"
	"testing"

	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/workload"
)

// run builds and runs a fabric to the horizon, returning its metrics.
func run(t *testing.T, cfg Config, seed int64, horizon float64) (Metrics, *Fabric) {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNGStream(seed, 0)
	f, err := New(cfg, eng, rng)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := eng.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	return f.Snapshot(), f
}

// A single-segment fabric is the paper's single bus. Its trajectory is
// pinned bit for bit by values recorded from the flat single-bus
// engine this package replaced: every scalar, the per-station grants,
// the per-bus utilizations, the histogram counts and the fired events.
func TestSingleSegmentMatchesBusNetwork(t *testing.T) {
	cases := []struct {
		name                 string
		mode                 Mode
		cap, m               int
		want                 SegmentMetrics
		waitCount, respCount uint64
		events               uint64
	}{
		{
			name: "unbuffered", mode: Unbuffered, cap: 0, m: 1,
			want: SegmentMetrics{
				Utilization: 0.8132683917754715, MeanQueueLen: 1.1680071563564847, MaxQueueLen: 5,
				MeanWait: 1.4509405669024633, WaitStdDev: 1.893648780855731, MaxWait: 11.724344108792707,
				MeanResponse: 2.461205426483079, Throughput: 0.8045, Issued: 1610, Completions: 1609,
				Grants: []uint64{263, 272, 273, 261, 272, 269}, BusUtilization: []float64{0.8132683917754715},
			},
			waitCount: 1610, respCount: 1609, events: 3219,
		},
		{
			name: "buffered-finite", mode: Buffered, cap: 3, m: 1,
			want: SegmentMetrics{
				Utilization: 0.9781634144505621, MeanQueueLen: 10.777907558614647, MaxQueueLen: 18,
				MeanWait: 11.887316209948459, WaitStdDev: 8.077073163340982, MaxWait: 34.63608245699055,
				MeanResponse: 12.876974453044964, Throughput: 0.9915, Issued: 1990, Completions: 1983,
				Grants: []uint64{323, 337, 331, 350, 322, 321}, BusUtilization: []float64{0.9781634144505621},
			},
			waitCount: 1984, respCount: 1983, events: 3973,
		},
		{
			name: "buffered-infinite", mode: Buffered, cap: Infinite, m: 1,
			want: SegmentMetrics{
				Utilization: 0.9965473766059257, MeanQueueLen: 189.5219623607594, MaxQueueLen: 393,
				MeanWait: 156.86822724039644, WaitStdDev: 90.56324326686756, MaxWait: 373.3481853496435,
				MeanResponse: 157.79155846074468, Throughput: 1.0005, Issued: 2394, Completions: 2001,
				Grants: []uint64{333, 336, 340, 332, 333, 328}, BusUtilization: []float64{0.9965473766059257},
			},
			waitCount: 2002, respCount: 2001, events: 4395,
		},
		{
			name: "multibus-unbuffered", mode: Unbuffered, cap: 0, m: 3,
			want: SegmentMetrics{
				Utilization: 0.3401810382849016, MeanQueueLen: 0.015473591781409812, MaxQueueLen: 3,
				MeanWait: 0.015275016566051153, WaitStdDev: 0.10101806100268858, MaxWait: 1.6079428977881491,
				MeanResponse: 1.0227213293545054, Throughput: 1.013, Issued: 2026, Completions: 2026,
				Grants: []uint64{342, 317, 347, 356, 338, 326}, BusUtilization: []float64{0.5282764486010892, 0.3510630981179934, 0.14120356813562185},
			},
			waitCount: 2026, respCount: 2026, events: 4052,
		},
		{
			name: "multibus-buffered", mode: Buffered, cap: 2, m: 2,
			want: SegmentMetrics{
				Utilization: 0.5837168754105982, MeanQueueLen: 0.5378390049283653, MaxQueueLen: 8,
				MeanWait: 0.46647928444260217, WaitStdDev: 0.9842035433123729, MaxWait: 9.162952775340841,
				MeanResponse: 1.4549260325471634, Throughput: 1.181, Issued: 2364, Completions: 2362,
				Grants: []uint64{428, 405, 379, 381, 375, 396}, BusUtilization: []float64{0.661283951716264, 0.5061497991049325},
			},
			waitCount: 2364, respCount: 2362, events: 4726,
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			const (
				seed    = 7
				horizon = 2000.0
				n       = 6
				lambda  = 0.2
				mu      = 1.0
			)
			got, f := run(t, Config{
				Segments: []SegmentConfig{{
					Name: "bus", Buses: tt.m, ServiceRate: mu,
					Stations: n, ThinkRate: lambda, Mode: tt.mode, BufferCap: tt.cap,
				}},
				Quantiles: true,
			}, seed, horizon)

			if len(got.Segments) != 1 {
				t.Fatalf("got %d segments", len(got.Segments))
			}
			s, want := got.Segments[0], tt.want
			pairs := []struct {
				name       string
				gotV, want float64
			}{
				{"utilization", s.Utilization, want.Utilization},
				{"mean_queue_len", s.MeanQueueLen, want.MeanQueueLen},
				{"max_queue_len", s.MaxQueueLen, want.MaxQueueLen},
				{"mean_wait", s.MeanWait, want.MeanWait},
				{"wait_std_dev", s.WaitStdDev, want.WaitStdDev},
				{"max_wait", s.MaxWait, want.MaxWait},
				{"mean_response", s.MeanResponse, want.MeanResponse},
				{"throughput", s.Throughput, want.Throughput},
				{"issued", float64(s.Issued), float64(want.Issued)},
				{"completions", float64(s.Completions), float64(want.Completions)},
			}
			for _, p := range pairs {
				if p.gotV != p.want {
					t.Errorf("%s = %v, want %v (bit-exact)", p.name, p.gotV, p.want)
				}
			}
			if !reflect.DeepEqual(s.Grants, want.Grants) {
				t.Errorf("grants = %v, want %v", s.Grants, want.Grants)
			}
			if !reflect.DeepEqual(s.BusUtilization, want.BusUtilization) {
				t.Errorf("bus utilization = %v, want %v", s.BusUtilization, want.BusUtilization)
			}
			if s.WaitHist.Count() != tt.waitCount || s.RespHist.Count() != tt.respCount {
				t.Errorf("histogram counts = %d/%d, want %d/%d",
					s.WaitHist.Count(), s.RespHist.Count(), tt.waitCount, tt.respCount)
			}
			if ev := f.eng.Processed(); ev != tt.events {
				t.Errorf("fired %d events, want %d", ev, tt.events)
			}
			if s.Blocked != 0 {
				t.Errorf("single segment reported blocked = %v", s.Blocked)
			}
			// End-to-end response of a 1-hop fabric is the hop response.
			if len(got.Flows) != 1 || got.Flows[0].MeanResponse != want.MeanResponse ||
				got.Flows[0].Completed != want.Completions {
				t.Errorf("flow = %+v, want mean response %v over %d completions",
					got.Flows, want.MeanResponse, want.Completions)
			}
			if got.Flows[0].RespHist.Count() != tt.respCount {
				t.Errorf("flow histogram count = %d, want %d", got.Flows[0].RespHist.Count(), tt.respCount)
			}
		})
	}
}

// Equal (config, seed) runs are bit-identical; different seeds differ.
func TestFabricDeterminism(t *testing.T) {
	cfg := twoHopChain(8, 0.05, 1, 1.25, 4)
	a, _ := run(t, cfg, 3, 5000)
	b, _ := run(t, cfg, 3, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	c, _ := run(t, cfg, 4, 5000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical metrics")
	}
}

// twoHopChain builds cpu(n stations, buffered-infinite, Poisson λ) →
// bridge(depth) → mem, with service rates mu0 and mu1.
func twoHopChain(n int, lambda, mu0, mu1 float64, depth int) Config {
	return Config{
		Segments: []SegmentConfig{
			{Name: "cpu", ServiceRate: mu0, Stations: n, ThinkRate: lambda,
				Mode: Buffered, BufferCap: Infinite, Route: []int{1}},
			{Name: "mem", ServiceRate: mu1},
		},
		Links: []LinkConfig{{From: 0, To: 1, Depth: depth}},
	}
}

// Every request that exits visited every hop: hop-0 completions feed
// hop 1, and flow exits equal the final hop's completions. Live
// requests account for the difference between issues and exits.
func TestFlowConservation(t *testing.T) {
	m, f := run(t, twoHopChain(8, 0.05, 1, 1.25, 2), 11, 20000)
	cpu, mem := m.Segments[0], m.Segments[1]
	if cpu.Completions < mem.Completions {
		t.Errorf("hop 0 completed %d < hop 1 completed %d — requests skipped a hop",
			cpu.Completions, mem.Completions)
	}
	if m.Flows[0].Completed != mem.Completions {
		t.Errorf("flow exits %d != final hop completions %d", m.Flows[0].Completed, mem.Completions)
	}
	inFlight := int(cpu.Issued) - int(m.Flows[0].Completed)
	if f.Live() != inFlight {
		t.Errorf("Live() = %d, want issued − exited = %d", f.Live(), inFlight)
	}
	sum := 0
	for i := 0; i < 8; i++ {
		sum += f.Outstanding(0, i)
	}
	if sum != inFlight {
		t.Errorf("Σ Outstanding = %d, want %d", sum, inFlight)
	}
	// End-to-end response dominates each hop's response.
	if m.Flows[0].MeanResponse < cpu.MeanResponse || m.Flows[0].MeanResponse < mem.MeanResponse {
		t.Errorf("e2e response %v below a hop response (%v, %v)",
			m.Flows[0].MeanResponse, cpu.MeanResponse, mem.MeanResponse)
	}
}

// With a slow downstream hop and a depth-1 bridge, blocking-after-
// service must hold upstream buses a measurable fraction of the time;
// deepening the bridge strictly reduces the blocked fraction and the
// end-to-end response. This pins the backpressure direction.
func TestBridgeDepthRelievesBlocking(t *testing.T) {
	e2e := make([]float64, 0, 3)
	blocked := make([]float64, 0, 3)
	for _, depth := range []int{1, 4, Infinite} {
		// Downstream μ = 0.8 < aggregate λ·N = 8·0.12 ≈ 0.96? Keep it
		// stable but tight: λN = 0.64, μ1 = 0.8 → ρ₁ = 0.8.
		m, _ := run(t, twoHopChain(8, 0.08, 2, 0.8, depth), 5, 40000)
		e2e = append(e2e, m.Flows[0].MeanResponse)
		blocked = append(blocked, m.Segments[0].Blocked)
	}
	if !(blocked[0] > blocked[1] && blocked[1] > blocked[2]) {
		t.Errorf("blocked fraction not decreasing in depth: %v", blocked)
	}
	if blocked[2] != 0 {
		t.Errorf("infinite bridge blocked fraction = %v, want 0", blocked[2])
	}
	if !(e2e[0] > e2e[2]) {
		t.Errorf("e2e response not relieved by deeper bridge: %v", e2e)
	}
	if blocked[0] <= 0.01 {
		t.Errorf("depth-1 bridge under ρ=0.8 blocked only %v of the time — backpressure not engaging", blocked[0])
	}
}

// A finite interface never queues more than BufferCap requests; a
// request issued at a full interface stalls its station instead.
func TestBufferedFiniteCapRespected(t *testing.T) {
	const capacity = 2
	eng := sim.NewEngine()
	f, err := New(Config{Segments: []SegmentConfig{{
		ServiceRate: 1, Stations: 3, ThinkRate: 3, // saturating: buffers will fill
		Mode: Buffered, BufferCap: capacity,
	}}}, eng, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	s := f.segs[0]
	sawStall := false
	for step := 0; step < 300; step++ {
		if err := eng.RunUntil(eng.Now() + 0.5); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.cfg.Stations; i++ {
			if q := s.claimQ[i].len(); q > capacity {
				t.Fatalf("t=%v: station %d queue length %d exceeds cap %d", eng.Now(), i, q, capacity)
			}
			sawStall = sawStall || s.stalled[i].held
		}
	}
	if !sawStall {
		t.Fatal("saturating workload never stalled a station; test is not exercising backpressure")
	}
}

// Unbuffered stations must never have two requests in flight: the
// station blocks until fabric exit, even across hops.
func TestUnbufferedSingleOutstanding(t *testing.T) {
	cfg := twoHopChain(4, 0.3, 1, 0.9, 1)
	cfg.Segments[0].Mode = Unbuffered
	cfg.Segments[0].BufferCap = 0
	eng := sim.NewEngine()
	f, err := New(cfg, eng, sim.NewRNGStream(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	for stop := 100.0; stop <= 3000; stop += 100 {
		if err := eng.RunUntil(stop); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if c := f.Outstanding(0, i); c > 1 {
				t.Fatalf("unbuffered station %d has %d requests in flight at t=%v", i, c, stop)
			}
		}
	}
}

// A three-hop chain and a two-source tree exercise transit segments and
// merge points; throughput must be conserved end to end.
func TestTreeMergeConservation(t *testing.T) {
	cfg := Config{
		Segments: []SegmentConfig{
			{Name: "cpuA", ServiceRate: 2, Stations: 4, ThinkRate: 0.06,
				Mode: Buffered, BufferCap: Infinite, Route: []int{2, 3}},
			{Name: "cpuB", ServiceRate: 2, Stations: 4, ThinkRate: 0.04,
				Mode: Buffered, BufferCap: Infinite, Route: []int{2, 3}},
			{Name: "backbone", ServiceRate: 1.5},
			{Name: "mem", ServiceRate: 1.2},
		},
		Links: []LinkConfig{
			{From: 0, To: 2, Depth: 4},
			{From: 1, To: 2, Depth: 4},
			{From: 2, To: 3, Depth: 4},
		},
	}
	m, _ := run(t, cfg, 17, 40000)
	exits := m.Flows[0].Completed + m.Flows[1].Completed
	if got := m.Segments[3].Completions; got != exits {
		t.Errorf("mem completed %d, flows exited %d", got, exits)
	}
	if got := m.Segments[2].Completions; got < exits {
		t.Errorf("backbone completed %d < %d exits", got, exits)
	}
	// Offered load 4·0.06 + 4·0.04 = 0.4 per unit time; conservation to
	// within the still-in-flight tail.
	want := 0.4
	if math.Abs(m.Segments[3].Throughput-want)/want > 0.05 {
		t.Errorf("exit throughput %v, want ≈ %v", m.Segments[3].Throughput, want)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := twoHopChain(4, 0.1, 1, 1, 2)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutate := func(fn func(*Config)) Config {
		c := twoHopChain(4, 0.1, 1, 1, 2)
		// Deep-copy the slices the mutations touch.
		c.Segments = append([]SegmentConfig(nil), c.Segments...)
		c.Links = append([]LinkConfig(nil), c.Links...)
		fn(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no segments", Config{}},
		{"no stations", mutate(func(c *Config) { c.Segments[0].Stations = 0; c.Segments[0].Route = nil; c.Links = nil })},
		{"bad service rate", mutate(func(c *Config) { c.Segments[1].ServiceRate = 0 })},
		{"bad think rate", mutate(func(c *Config) { c.Segments[0].ThinkRate = math.Inf(1) })},
		{"source count mismatch", mutate(func(c *Config) {
			c.Segments[0].Sources = make([]workload.Source, c.Segments[0].Stations-1)
		})},
		{"nil source entry", mutate(func(c *Config) {
			c.Segments[0].Sources = make([]workload.Source, c.Segments[0].Stations)
		})},
		{"negative buses", mutate(func(c *Config) { c.Segments[0].Buses = -1 })},
		{"bad mode", mutate(func(c *Config) { c.Segments[0].Mode = Mode(9) })},
		{"transit with route", mutate(func(c *Config) { c.Segments[1].Route = []int{0} })},
		{"bad buffer cap", mutate(func(c *Config) { c.Segments[0].BufferCap = -3 })},
		{"route out of range", mutate(func(c *Config) { c.Segments[0].Route = []int{5} })},
		{"route without link", mutate(func(c *Config) { c.Links[0].From = 1; c.Links[0].To = 0 })},
		{"self-loop", mutate(func(c *Config) { c.Links[0].To = 0 })},
		{"duplicate link", mutate(func(c *Config) { c.Links = append(c.Links, LinkConfig{From: 0, To: 1, Depth: 1}) })},
		{"bad depth", mutate(func(c *Config) { c.Links[0].Depth = 0 })},
		{"dead link", mutate(func(c *Config) { c.Segments[0].Route = nil; c.Segments[1].Stations = 1; c.Segments[1].ThinkRate = 1 })},
		{"dup names", mutate(func(c *Config) { c.Segments[1].Name = "cpu" })},
		{"cycle", Config{
			Segments: []SegmentConfig{
				{Name: "a", ServiceRate: 1, Stations: 1, ThinkRate: 1, Route: []int{1, 0}},
				{Name: "b", ServiceRate: 1},
			},
			Links: []LinkConfig{{From: 0, To: 1, Depth: 1}, {From: 1, To: 0, Depth: 1}},
		}},
		{"wrong-size arbiter", mutate(func(c *Config) {
			w, _ := NewWeightedRoundRobin([]int{1, 2})
			c.Segments[0].Arbiter = w
		})},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); err == nil {
				t.Errorf("accepted: %+v", tt.cfg)
			}
		})
	}
	// A correctly sized arbiter covers stations + inbound bridges.
	sized := mutate(func(c *Config) {
		w, _ := NewWeightedRoundRobin([]int{3, 1, 1, 1, 2})
		c.Segments[1].Stations = 1
		c.Segments[1].ThinkRate = 0.05
		c.Segments[1].Mode = Buffered
		c.Segments[1].BufferCap = Infinite
		c.Segments[1].Arbiter = nil
		_ = w
	})
	if err := sized.Validate(); err != nil {
		t.Errorf("station-bearing sink rejected: %v", err)
	}
}

// ResetStats drops history but preserves state: a warmup reset must not
// disturb determinism of the remaining run, and extrema reset cleanly.
func TestResetStats(t *testing.T) {
	cfg := twoHopChain(6, 0.08, 1, 1, 2)
	eng := sim.NewEngine()
	f, err := New(cfg, eng, sim.NewRNGStream(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := eng.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	if err := eng.RunUntil(5000); err != nil {
		t.Fatal(err)
	}
	m := f.Snapshot()
	if m.Elapsed != 4000 {
		t.Errorf("elapsed = %v, want 4000", m.Elapsed)
	}
	for _, s := range m.Segments {
		if s.Issued > 0 && s.Completions == 0 {
			t.Errorf("segment %s issued %d but completed none post-reset", s.Name, s.Issued)
		}
	}
}

package bus

import (
	"math"
	"testing"

	"github.com/busnet/busnet/internal/servdist"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/workload"
)

func newTestNetwork(t *testing.T, cfg Config, seed int64) (*Network, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	n, err := New(cfg, eng, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return n, eng
}

// New refuses every invalid flat config: the one-segment lowering hands
// it to topo.New, whose checks are the only ones at construction. A nil
// arbiter is not an error there — it defaults to round-robin.
func TestConfigValidate(t *testing.T) {
	valid := Config{
		Processors: 4, ThinkRate: 0.1, ServiceRate: 1,
		Mode: Buffered, BufferCap: 2, Arbiter: NewRoundRobin(),
	}
	if _, err := New(valid, sim.NewEngine(), sim.NewRNG(1)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero processors", func(c *Config) { c.Processors = 0 }},
		{"negative buses", func(c *Config) { c.Buses = -1 }},
		{"negative think rate", func(c *Config) { c.ThinkRate = -1 }},
		{"NaN think rate", func(c *Config) { c.ThinkRate = math.NaN() }},
		{"zero service rate", func(c *Config) { c.ServiceRate = 0 }},
		{"bad mode", func(c *Config) { c.Mode = Mode(9) }},
		{"zero buffer cap", func(c *Config) { c.BufferCap = 0 }},
		{"source count mismatch", func(c *Config) {
			c.Sources = make([]workload.Source, c.Processors-1)
		}},
		{"nil source entry", func(c *Config) {
			c.Sources = make([]workload.Source, c.Processors)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := New(cfg, sim.NewEngine(), sim.NewRNG(1)); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// In unbuffered mode a processor blocks on its request, so it can never
// have more than one in flight.
func TestUnbufferedSingleOutstanding(t *testing.T) {
	cfg := Config{
		Processors: 4, ThinkRate: 2, ServiceRate: 1, // heavy load forces contention
		Mode: Unbuffered, Arbiter: NewRoundRobin(),
	}
	n, eng := newTestNetwork(t, cfg, 7)
	n.Start()
	for step := 0; step < 200; step++ {
		if err := eng.RunUntil(eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.Processors; i++ {
			if c := n.Outstanding(i); c > 1 {
				t.Fatalf("t=%v: processor %d has %d outstanding requests in unbuffered mode",
					eng.Now(), i, c)
			}
		}
	}
	if n.Snapshot().Completions == 0 {
		t.Fatal("no completions under heavy load")
	}
}

// A finite buffer bounds outstanding requests to cap (queued) + 1
// stalled + 1 in service; the interface queue itself is pinned at cap
// by the fabric's own test of the same name.
func TestBufferedFiniteCapRespected(t *testing.T) {
	const capacity = 2
	cfg := Config{
		Processors: 3, ThinkRate: 3, ServiceRate: 1, // saturating: buffers will fill
		Mode: Buffered, BufferCap: capacity, Arbiter: NewRoundRobin(),
	}
	n, eng := newTestNetwork(t, cfg, 11)
	n.Start()
	for step := 0; step < 300; step++ {
		if err := eng.RunUntil(eng.Now() + 0.5); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.Processors; i++ {
			if c := n.Outstanding(i); c > capacity+2 {
				t.Fatalf("t=%v: processor %d outstanding %d exceeds cap+2", eng.Now(), i, c)
			}
		}
	}
	if n.Counters().Stalls == 0 {
		t.Fatal("saturating workload never stalled a processor; test is not exercising backpressure")
	}
}

// Every issued request is eventually served: after the generators stop,
// draining the queues brings completions up to issues.
func TestRequestConservation(t *testing.T) {
	for _, mode := range []Mode{Unbuffered, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{
				Processors: 8, ThinkRate: 0.2, ServiceRate: 1,
				Mode: mode, BufferCap: Infinite, Arbiter: NewRoundRobin(),
			}
			n, eng := newTestNetwork(t, cfg, 3)
			n.Start()
			if err := eng.RunUntil(5000); err != nil {
				t.Fatal(err)
			}
			m := n.Snapshot()
			inFlight := 0
			for i := 0; i < cfg.Processors; i++ {
				inFlight += n.Outstanding(i)
			}
			if m.Issued != m.Completions+uint64(inFlight) {
				t.Fatalf("issued %d != completions %d + in-flight %d",
					m.Issued, m.Completions, inFlight)
			}
			if m.Utilization <= 0 || m.Utilization > 1 {
				t.Fatalf("utilization %v outside (0, 1]", m.Utilization)
			}
			if m.MeanWait < 0 || m.MeanResponse < m.MeanWait {
				t.Fatalf("wait %v / response %v inconsistent", m.MeanWait, m.MeanResponse)
			}
		})
	}
}

// Waiting time of a stalled request must include the stall interval: with
// buffer cap 1 and deterministic-ish saturation, mean wait has to exceed
// pure queueing of admitted requests. Regression guard for losing the
// original issue timestamp on the stalled path.
func TestStalledRequestKeepsIssueTime(t *testing.T) {
	cfg := Config{
		Processors: 2, ThinkRate: 10, ServiceRate: 1,
		Mode: Buffered, BufferCap: 1, Arbiter: NewRoundRobin(),
	}
	n, eng := newTestNetwork(t, cfg, 5)
	n.Start()
	if err := eng.RunUntil(2000); err != nil {
		t.Fatal(err)
	}
	m := n.Snapshot()
	// At λ=10 per processor vs μ=1, nearly every request stalls ~one full
	// service behind the queued one; mean wait well above one service time
	// proves stall time is being counted.
	if m.MeanWait < 1 {
		t.Fatalf("mean wait %v under saturation with cap 1; stall time appears dropped", m.MeanWait)
	}
}

// Per-station sources are genuinely per-station: a fast deterministic
// station next to slow Poisson stations must dominate issued requests,
// and the config must accept heterogeneous shapes in one network.
func TestPerStationSourcesShapeTraffic(t *testing.T) {
	mustSrc := func(spec workload.Spec, base float64) workload.Source {
		src, err := spec.NewSource(base)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	cfg := Config{
		Processors: 3, ServiceRate: 1,
		Mode: Buffered, BufferCap: Infinite, Arbiter: NewRoundRobin(),
		Sources: []workload.Source{
			mustSrc(workload.Spec{Kind: workload.KindDeterministic}, 0.5),
			mustSrc(workload.Spec{}, 0.01),
			mustSrc(workload.Spec{}, 0.01),
		},
	}
	n, eng := newTestNetwork(t, cfg, 13)
	n.Start()
	if err := eng.RunUntil(5000); err != nil {
		t.Fatal(err)
	}
	m := n.Snapshot()
	// Station 0 issues at 0.5/s against 0.01/s Poisson stations: it must
	// hold the overwhelming majority of grants.
	if m.Grants[0] < 10*(m.Grants[1]+m.Grants[2]+1) {
		t.Fatalf("deterministic fast station not dominating: grants %v", m.Grants)
	}
	// ThinkRate is not consulted when sources are provided — the zero
	// value above must not have frozen or crashed the run.
	if m.Completions == 0 {
		t.Fatal("no completions with per-station sources")
	}
}

// Multi-bus invariants under saturation: the number of in-service
// requests never exceeds the bus count, no processor is served by two
// buses at once in unbuffered mode, and per-bus utilizations average to
// the aggregate with the load skewed toward the lowest-numbered bus.
func TestMultiBusInvariants(t *testing.T) {
	const buses = 3
	cfg := Config{
		Processors: 8, ThinkRate: 2, ServiceRate: 1, // demand 16 on 3 buses
		Mode: Unbuffered, Arbiter: NewRoundRobin(), Buses: buses,
	}
	n, eng := newTestNetwork(t, cfg, 7)
	n.Start()
	for step := 0; step < 300; step++ {
		if err := eng.RunUntil(eng.Now() + 0.5); err != nil {
			t.Fatal(err)
		}
		if b := n.Busy(); b < 0 || b > buses {
			t.Fatalf("t=%v: %d busy buses outside [0, %d]", eng.Now(), b, buses)
		}
		for i := 0; i < cfg.Processors; i++ {
			if c := n.Outstanding(i); c > 1 {
				t.Fatalf("t=%v: processor %d has %d outstanding requests in unbuffered mode",
					eng.Now(), i, c)
			}
		}
	}
	m := n.Snapshot()
	if m.Completions == 0 {
		t.Fatal("no completions under heavy load")
	}
	if len(m.BusUtilization) != buses {
		t.Fatalf("per-bus utilization has %d entries, want %d", len(m.BusUtilization), buses)
	}
	sum := 0.0
	for b, u := range m.BusUtilization {
		if u <= 0 || u > 1 {
			t.Fatalf("bus %d utilization %v outside (0, 1]", b, u)
		}
		sum += u
	}
	if math.Abs(sum/buses-m.Utilization) > 1e-9 {
		t.Fatalf("mean per-bus utilization %v != aggregate %v", sum/buses, m.Utilization)
	}
	// Lowest-free-bus dispatch loads bus 0 at least as much as bus m-1.
	if m.BusUtilization[0] < m.BusUtilization[buses-1] {
		t.Fatalf("bus 0 utilization %v below bus %d's %v; lowest-free-bus skew lost",
			m.BusUtilization[0], buses-1, m.BusUtilization[buses-1])
	}
}

// Request conservation holds on a fabric too, and adding buses at a
// fixed workload must strictly help: more completions, shorter waits.
func TestMultiBusConservationAndSpeedup(t *testing.T) {
	run := func(buses int) Metrics {
		cfg := Config{
			Processors: 16, ThinkRate: 0.3, ServiceRate: 1,
			Mode: Buffered, BufferCap: Infinite, Arbiter: NewRoundRobin(), Buses: buses,
		}
		n, eng := newTestNetwork(t, cfg, 3)
		n.Start()
		if err := eng.RunUntil(5000); err != nil {
			t.Fatal(err)
		}
		m := n.Snapshot()
		inFlight := 0
		for i := 0; i < cfg.Processors; i++ {
			inFlight += n.Outstanding(i)
		}
		if m.Issued != m.Completions+uint64(inFlight) {
			t.Fatalf("buses=%d: issued %d != completions %d + in-flight %d",
				buses, m.Issued, m.Completions, inFlight)
		}
		return m
	}
	// Demand Nλ/μ = 4.8: one bus saturates, four do not, eight coast.
	one, four, eight := run(1), run(4), run(8)
	if !(four.Completions > one.Completions) {
		t.Fatalf("4 buses completed %d ≤ 1 bus's %d under overload", four.Completions, one.Completions)
	}
	if !(four.MeanWait < one.MeanWait/4) {
		t.Fatalf("4-bus wait %v not well below 1-bus wait %v", four.MeanWait, one.MeanWait)
	}
	if !(eight.MeanWait < four.MeanWait) {
		t.Fatalf("8-bus wait %v not below 4-bus wait %v", eight.MeanWait, four.MeanWait)
	}
	if !(one.Utilization > 0.99) {
		t.Fatalf("single bus not saturated at demand 4.8: U = %v", one.Utilization)
	}
	if eight.Utilization >= one.Utilization {
		t.Fatalf("per-bus utilization did not fall with more buses: %v vs %v",
			eight.Utilization, one.Utilization)
	}
}

// Buses = 0 is the documented single-bus default: it must run the exact
// same trajectory as an explicit Buses = 1.
func TestZeroBusesMeansOne(t *testing.T) {
	run := func(buses int) Metrics {
		cfg := Config{
			Processors: 8, ThinkRate: 0.2, ServiceRate: 1,
			Mode: Unbuffered, Arbiter: NewRoundRobin(), Buses: buses,
		}
		n, eng := newTestNetwork(t, cfg, 11)
		n.Start()
		if err := eng.RunUntil(3000); err != nil {
			t.Fatal(err)
		}
		return n.Snapshot()
	}
	a, b := run(0), run(1)
	if a.Completions != b.Completions || a.Utilization != b.Utilization || a.MeanWait != b.MeanWait {
		t.Fatalf("Buses 0 and 1 diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestResetStatsDropsHistoryKeepsState(t *testing.T) {
	cfg := Config{
		Processors: 4, ThinkRate: 0.5, ServiceRate: 1,
		Mode: Buffered, BufferCap: Infinite, Arbiter: NewRoundRobin(),
	}
	n, eng := newTestNetwork(t, cfg, 9)
	n.Start()
	if err := eng.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	before := n.Snapshot()
	if before.Completions == 0 {
		t.Fatal("warmup produced no completions")
	}
	n.ResetStats()
	zeroed := n.Snapshot()
	if zeroed.Completions != 0 || zeroed.Issued != 0 || zeroed.Elapsed != 0 {
		t.Fatalf("ResetStats left residue: %+v", zeroed)
	}
	if err := eng.RunUntil(1500); err != nil {
		t.Fatal(err)
	}
	after := n.Snapshot()
	if after.Completions == 0 {
		t.Fatal("simulation did not continue after ResetStats")
	}
	if after.Elapsed != 1000 {
		t.Fatalf("measured interval = %v, want 1000", after.Elapsed)
	}
}

// burstSource fires one synchronized opening burst — station i issues at
// t = i·0.001 — then settles into a light periodic trickle. It exists to
// manufacture the classic warmup transient: a deep one-off queue that
// drains long before measurement should begin.
type burstSource struct {
	i       int
	started bool
}

func (s *burstSource) Next(*sim.RNG) float64 {
	if !s.started {
		s.started = true
		return float64(s.i) * 0.001
	}
	// Station-specific periods keep the follow-up arrivals dispersed —
	// a shared period would re-synchronize into a fresh burst every cycle.
	return 50 + 7*float64(s.i)
}
func (s *burstSource) Name() string { return "test-burst" }

// Warmup truncation must scrub the extrema, not just the means: drive a
// synchronized 32-station burst (peak queue ≈ 31, waits ≈ 30 service
// times), let it drain fully, ResetStats, and run on under the light
// trickle — post-reset MaxQueueLen and MaxWait must sit far below the
// transient's peaks. Regression lock for Tally.Reset and
// TimeWeighted.ResetAt clearing Max.
func TestResetStatsScrubsWarmupExtrema(t *testing.T) {
	const stations = 32
	srcs := make([]workload.Source, stations)
	for i := range srcs {
		srcs[i] = &burstSource{i: i}
	}
	cfg := Config{
		Processors: stations, ServiceRate: 1,
		Mode: Buffered, BufferCap: Infinite, Arbiter: NewRoundRobin(),
		Sources: srcs,
	}
	n, eng := newTestNetwork(t, cfg, 21)
	n.Start()
	// The burst queues ~all stations at once and drains at μ = 1 over
	// ~32 time units; by t = 200 the system has long been in its light
	// steady trickle (one request per station every 50).
	if err := eng.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	pre := n.Snapshot()
	if pre.MaxQueueLen < float64(stations)-5 || pre.MaxWait < 20 {
		t.Fatalf("burst did not build the transient: maxQ=%v maxWait=%v", pre.MaxQueueLen, pre.MaxWait)
	}
	n.ResetStats()
	if err := eng.RunUntil(2000); err != nil {
		t.Fatal(err)
	}
	post := n.Snapshot()
	if post.Completions == 0 {
		t.Fatal("no post-reset completions; trickle not running")
	}
	// Periodic arrivals 50 apart on an idle bus wait at most a handful of
	// service times; anything near the burst's extrema means the reset
	// leaked pre-warmup history into Max.
	if post.MaxQueueLen >= pre.MaxQueueLen/2 {
		t.Fatalf("post-reset MaxQueueLen %v still near the transient peak %v",
			post.MaxQueueLen, pre.MaxQueueLen)
	}
	if post.MaxWait >= pre.MaxWait/2 {
		t.Fatalf("post-reset MaxWait %v still near the transient peak %v",
			post.MaxWait, pre.MaxWait)
	}
}

// Conservation invariant under buffered-finite stall churn, single bus
// and fabric: every issued request is exactly accounted for — completed,
// waiting at an interface, stalled at a full one, or in service — and
// the per-bus utilizations average to the aggregate within float
// tolerance. The workload saturates 4-deep buffers so admission,
// stalling, and re-admission all churn continuously.
func TestBufferedFiniteStallConservation(t *testing.T) {
	for _, buses := range []int{1, 4} {
		t.Run(map[int]string{1: "m1", 4: "m4"}[buses], func(t *testing.T) {
			cfg := Config{
				Processors: 12, ThinkRate: 0.8, ServiceRate: 1, // demand 9.6: saturates 1 and 4 buses
				Mode: Buffered, BufferCap: 4, Arbiter: NewRoundRobin(), Buses: buses,
			}
			n, eng := newTestNetwork(t, cfg, 29)
			n.Start()
			for step := 0; step < 200; step++ {
				if err := eng.RunUntil(eng.Now() + 25); err != nil {
					t.Fatal(err)
				}
				m := n.Snapshot()
				inFlight := 0
				for i := 0; i < cfg.Processors; i++ {
					c := n.Outstanding(i)
					// Cap waiting slots, plus one stalled at the full
					// interface, plus up to one in service per bus.
					if c > cfg.BufferCap+1+buses {
						t.Fatalf("t=%v: processor %d outstanding %d exceeds cap+1+m", eng.Now(), i, c)
					}
					inFlight += c
				}
				if m.Issued != m.Completions+uint64(inFlight) {
					t.Fatalf("t=%v: issued %d != completions %d + outstanding %d (stall accounting leak)",
						eng.Now(), m.Issued, m.Completions, inFlight)
				}
				sum := 0.0
				for _, u := range m.BusUtilization {
					sum += u
				}
				if m.Elapsed > 0 && math.Abs(sum/float64(buses)-m.Utilization) > 1e-9 {
					t.Fatalf("t=%v: mean per-bus utilization %v != aggregate %v",
						eng.Now(), sum/float64(buses), m.Utilization)
				}
			}
			if n.Counters().Stalls == 0 {
				t.Fatal("saturating workload never stalled a processor; churn not exercised")
			}
		})
	}
}

// The service distribution is genuinely pluggable: deterministic service
// makes every response at least one full service time and pins the busy
// period per transaction, while the default remains exponential.
func TestServiceDistributionShapesServiceTimes(t *testing.T) {
	mustDist := func(spec servdist.Spec) servdist.Dist {
		d, err := spec.NewDist(1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cfg := Config{
		Processors: 4, ThinkRate: 0.1, ServiceRate: 1,
		Mode: Buffered, BufferCap: Infinite, Arbiter: NewRoundRobin(),
		Service:   mustDist(servdist.Spec{Kind: servdist.KindDeterministic}),
		Quantiles: true,
	}
	n, eng := newTestNetwork(t, cfg, 31)
	n.Start()
	if err := eng.RunUntil(5000); err != nil {
		t.Fatal(err)
	}
	m := n.Snapshot()
	if m.Completions == 0 {
		t.Fatal("no completions with deterministic service")
	}
	// Response = wait + exactly 1.0 of service: the minimum response is 1.
	if m.RespHist.Min() < 1 {
		t.Fatalf("deterministic service produced a response %v < one service time", m.RespHist.Min())
	}
	// Throughput ≈ N·λ in a stable buffered system, so the dist did not
	// change the load, only the shape.
	if e := math.Abs(m.Throughput-0.4) / 0.4; e > 0.1 {
		t.Fatalf("throughput %v strayed from N·λ = 0.4 (rel err %.3f)", m.Throughput, e)
	}
}

// BenchmarkNetworkSteadyState measures whole-system event throughput:
// a loaded 16-processor buffered network including arbitration, queue
// bookkeeping, and statistics on every event.
func BenchmarkNetworkSteadyState(b *testing.B) {
	cfg := Config{
		Processors: 16, ThinkRate: 0.06, ServiceRate: 1,
		Mode: Buffered, BufferCap: 8, Arbiter: NewRoundRobin(),
	}
	eng := sim.NewEngine()
	n, err := New(cfg, eng, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	if err := eng.RunUntil(100); err != nil { // past the startup transient
		b.Fatal(err)
	}
	start := eng.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Processed()-start < uint64(b.N) {
		if err := eng.RunUntil(eng.Now() + 100); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNetworkSteadyStateAllocFree locks the whole-system zero-allocation
// contract: once past the startup transient, a loaded buffered network —
// think-time draws, arbitration, queue bookkeeping, statistics — runs
// without touching the heap.
func TestNetworkSteadyStateAllocFree(t *testing.T) {
	cfg := Config{
		Processors: 16, ThinkRate: 0.06, ServiceRate: 1,
		Mode: Buffered, BufferCap: 8, Arbiter: NewRoundRobin(),
	}
	eng := sim.NewEngine()
	n, err := New(cfg, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := eng.RunUntil(1000); err != nil { // reach the pool's high-water mark
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := eng.RunUntil(eng.Now() + 100); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state network allocates %v per 100-time-unit window, want 0", avg)
	}
}

package topo

import (
	"runtime"
	"testing"

	"github.com/busnet/busnet/internal/sim"
)

// loadedTandem is the bridged twin of the single-bus steady-state
// fixture: a loaded 16-station buffered segment feeding a memory
// segment over a finite bridge, so a steady-state window exercises
// arbitration, bridge queueing, blocking-after-service, and release on
// top of the flat machinery.
func loadedTandem() Config {
	return Config{
		Segments: []SegmentConfig{
			{Name: "cpu", ServiceRate: 1, Stations: 16, ThinkRate: 0.06,
				Mode: Buffered, BufferCap: 8, Route: []int{1}},
			{Name: "mem", ServiceRate: 1},
		},
		Links: []LinkConfig{{From: 0, To: 1, Depth: 4}},
	}
}

// TestFabricSteadyStateAllocFree locks the zero-allocation contract for
// the topology engine with probes disabled, mirroring
// TestNetworkSteadyStateAllocFree: once the event pool and every queue
// have reached their high-water marks, a steady-state window — draws,
// arbitration, bridge transit, blocking, statistics, and the always-on
// diagnostics counters — runs without touching the heap.
func TestFabricSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(loadedTandem(), eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := eng.RunUntil(1000); err != nil { // reach the high-water marks
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := eng.RunUntil(eng.Now() + 100); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state fabric allocates %v per 100-time-unit window, want 0", avg)
	}
	if c := f.Counters(); c.BridgeCrossings == 0 || c.ArbScanSlots == 0 {
		t.Fatalf("diagnostics counters dead during the alloc-free window: %+v", c)
	}
}

// BenchmarkFabricSteadyState measures whole-fabric event throughput
// with probes disabled — the configuration the benchstat gate watches,
// so any instrumentation overhead on the hot path shows up here.
func BenchmarkFabricSteadyState(b *testing.B) {
	eng := sim.NewEngine()
	f, err := New(loadedTandem(), eng, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	f.Start()
	// Warm well past the startup transient — the queues and event pool
	// grow toward their high-water marks for a long tail under this
	// near-saturated load, and the 0 B/op baseline must hold even for
	// CI's tiny -benchtime=5x runs, where a single straggler growth
	// allocation would not amortize away.
	if err := eng.RunUntil(5000); err != nil {
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

// TestNewBoundedMemory pins that a deep finite queue costs the memory
// its occupancy needs, not the memory its capacity allows: 64 buffered
// stations at BufferCap 2¹⁶ feed a slower second segment over a bridge
// of Depth 2¹⁶, and building that fabric must allocate well under the
// O(N·cap) ring space a full pre-size would take (68 MB). A short
// saturating run then grows station and bridge queues past their
// pre-sized rings and must keep the fabric's invariants.
func TestNewBoundedMemory(t *testing.T) {
	const depth = 1 << 16
	cfg := Config{
		Segments: []SegmentConfig{
			{Name: "cpu", ServiceRate: 1, Stations: 64, ThinkRate: 0.1,
				Mode: Buffered, BufferCap: depth, Route: []int{1}},
			{Name: "mem", ServiceRate: 0.5},
		},
		Links: []LinkConfig{{From: 0, To: 1, Depth: depth}},
	}
	eng := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := New(cfg, eng, sim.NewRNG(1))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New allocated %d bytes, want < 1 MB", got)
	}
	f.Start()
	if err := eng.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	cpu, bridge := f.segs[0], &f.segs[1].claimQ[f.links[0].claimant]
	longest, outstanding := 0, 0
	for i := 0; i < cpu.cfg.Stations; i++ {
		q := cpu.claimQ[i].len()
		if q > depth {
			t.Fatalf("station %d queue length %d exceeds BufferCap %d", i, q, depth)
		}
		longest = max(longest, q)
		outstanding += f.Outstanding(0, i)
	}
	if longest <= ringReserveMax || bridge.len() <= ringReserveMax {
		t.Fatalf("longest station queue %d, bridge queue %d: want both past the %d-entry pre-size",
			longest, bridge.len(), ringReserveMax)
	}
	if bridge.len() > depth {
		t.Fatalf("bridge queue length %d exceeds Depth %d", bridge.len(), depth)
	}
	m := f.Snapshot()
	inFlight := int(m.Segments[0].Issued) - int(m.Flows[0].Completed)
	if f.Live() != inFlight || outstanding != inFlight {
		t.Fatalf("Live() = %d, Σ Outstanding = %d, want issued − exited = %d", f.Live(), outstanding, inFlight)
	}
	for k := range f.segs {
		if b := f.Busy(k); b < 0 || b > f.segs[k].nBuses {
			t.Fatalf("segment %d: %d buses busy of %d", k, b, f.segs[k].nBuses)
		}
	}
}

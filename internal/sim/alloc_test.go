package sim

import "testing"

// The zero-allocation contract: once the engine's event pool and the
// wheel's bucket array reach their steady-state working set, the hot
// path — schedule, fire, and every statistics update — must not touch
// the heap. These locks fail the build the moment a closure, interface
// conversion, or growing append sneaks back in.

// TestAllocsScheduleFire locks the full engine cycle: Schedule an event
// and fire it via RunUntil, the per-event path of every model.
func TestAllocsScheduleFire(t *testing.T) {
	e := NewEngine()
	var fire func()
	fire = func() {}
	// Warm up: grow the pool and the wheel to steady state.
	for i := 0; i < 100; i++ {
		e.Schedule(1, fire)
	}
	if err := e.RunUntil(e.Now() + 1000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fire)
		if err := e.RunUntil(e.Now() + 2); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("schedule+fire cycle allocates %v per run, want 0", avg)
	}
}

// TestAllocsScheduleCancel locks the cancellation path: a cancelled
// event must recycle into the pool without garbage.
func TestAllocsScheduleCancel(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	ev := e.Schedule(1, fn)
	e.Cancel(ev)
	avg := testing.AllocsPerRun(1000, func() {
		ev := e.Schedule(1, fn)
		if !e.Cancel(ev) {
			t.Fatal("Cancel failed")
		}
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel cycle allocates %v per run, want 0", avg)
	}
}

// TestAllocsStats locks every statistics collector the bus model calls
// per event: the Welford tally, the time-weighted integrator, and the
// streaming histogram.
func TestAllocsStats(t *testing.T) {
	t.Run("Tally.Add", func(t *testing.T) {
		var tl Tally
		x := 0.0
		if avg := testing.AllocsPerRun(1000, func() {
			x += 0.5
			tl.Add(x)
		}); avg != 0 {
			t.Fatalf("Tally.Add allocates %v per run, want 0", avg)
		}
	})
	t.Run("TimeWeighted.Set", func(t *testing.T) {
		var w TimeWeighted
		x := 0.0
		if avg := testing.AllocsPerRun(1000, func() {
			x += 0.5
			w.Set(x, x)
		}); avg != 0 {
			t.Fatalf("TimeWeighted.Set allocates %v per run, want 0", avg)
		}
	})
	t.Run("Histogram.Add", func(t *testing.T) {
		var h Histogram
		x := 0.0
		if avg := testing.AllocsPerRun(1000, func() {
			x += 0.5
			h.Add(x)
		}); avg != 0 {
			t.Fatalf("Histogram.Add allocates %v per run, want 0", avg)
		}
	})
}

// The oscillating pending set: the paper's sweeps swing one run's
// pending set between a few events and hundreds, and each swing
// re-targets the wheel's bucket count. After oscSingles unit-delay
// single-event steps the wheel sits at its minimum bucket count with a
// window of about 32 time units, so a burst starting oscLead ahead parks
// wholly in the overflow level and the rebase that admits it grows the
// bucket array. The burst's oscSpacing fills that grown window almost to
// its end, so the single-event steps after the drain walk out of it
// within oscSingles steps and the next rebase shrinks the array again.
const (
	oscBurst   = 400
	oscLead    = 64
	oscSpacing = 10
	oscSingles = 200
)

// oscillating returns an engine whose event pool and bucket array have
// reached their high-water marks under the oscillating pending set, and
// the function that runs one grow → shrink cycle on it: a burst drained
// to empty, then the single-event steps.
func oscillating(tb testing.TB) (*Engine, func()) {
	e := NewEngine()
	fire := func() {}
	singles := func() {
		for i := 0; i < oscSingles; i++ {
			e.Schedule(1, fire)
			if err := e.Run(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	cycle := func() {
		for i := 0; i < oscBurst; i++ {
			e.Schedule(oscLead+float64(i)*oscSpacing, fire)
		}
		if err := e.Run(); err != nil {
			tb.Fatal(err)
		}
		singles()
	}
	// Settle the bucket width on the single-step gap, then two warm-up
	// cycles grow the pool and the bucket array to their high-water marks.
	singles()
	cycle()
	cycle()
	return e, cycle
}

// TestAllocsOscillatingPending locks the wheel's storage reuse: once
// the bucket array has reached its high-water capacity, a grow → shrink
// cycle of the pending set reslices that storage and allocates nothing.
func TestAllocsOscillatingPending(t *testing.T) {
	e, cycle := oscillating(t)
	const runs = 20
	before := e.Counters().WheelResizes
	avg := testing.AllocsPerRun(runs, cycle)
	// AllocsPerRun makes one extra, unmeasured call.
	if got := e.Counters().WheelResizes - before; got < 2*(runs+1) {
		t.Fatalf("%d wheel resizes over %d cycles, want ≥ 2 per cycle (grow and shrink)", got, runs+1)
	}
	if avg != 0 {
		t.Fatalf("oscillating pending set allocates %v per cycle, want 0", avg)
	}
}

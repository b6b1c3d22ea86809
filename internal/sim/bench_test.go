package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventLoop measures the engine hot path: schedule one event,
// fire it, schedule the next from inside the callback — the steady-state
// pattern of every model built on the engine.
func BenchmarkEventLoop(b *testing.B) {
	e := NewEngine()
	var fire func()
	remaining := b.N
	fire = func() {
		remaining--
		if remaining > 0 {
			e.Schedule(1, fire)
		}
	}
	e.Schedule(1, fire)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if e.Processed() != uint64(b.N) {
		b.Fatalf("processed %d, want %d", e.Processed(), b.N)
	}
}

// BenchmarkHeapPushPop measures raw heap throughput with a working set of
// 1024 pending events, the regime a loaded bus simulation runs in.
func BenchmarkHeapPushPop(b *testing.B) {
	h := NewEventHeap(2048)
	t := 0.0
	for i := 0; i < 1024; i++ {
		t += 1.0
		h.Push(&Event{Time: t})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.Pop()
		t += 1.0
		ev.Time = t
		h.Push(ev)
	}
}

// BenchmarkWheelPushPop measures the timing wheel under the same
// 1024-pending working set as BenchmarkHeapPushPop, so the two rows
// compare the schedulers head to head.
func BenchmarkWheelPushPop(b *testing.B) {
	w := NewTimingWheel()
	t := 0.0
	for i := 0; i < 1024; i++ {
		t += 1.0
		w.Push(&Event{Time: t})
	}
	// Cycle once around the working set so the wheel's width and bucket
	// count settle before measurement.
	for i := 0; i < 4096; i++ {
		ev := w.Pop()
		t += 1.0
		ev.Time = t
		w.Push(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := w.Pop()
		t += 1.0
		ev.Time = t
		w.Push(ev)
	}
}

// BenchmarkWheelHold measures the wheel under the hold model at the
// pending-set sizes the benchmark workloads produce: 3–70 is paper-flat's
// range (its traced mean pending count is 16.8), and 1024 is large-n's
// top point. Each op pops the earliest event and pushes it back after an
// exponential delay whose mean equals the pending count, so the mean
// inter-fire gap is one time unit at every size.
func BenchmarkWheelHold(b *testing.B) {
	for _, n := range []int{3, 17, 70, 1024} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			rng := NewRNG(1)
			delays := make([]float64, 4096)
			for i := range delays {
				delays[i] = rng.Exp(1 / float64(n))
			}
			w := NewTimingWheel()
			for i := 0; i < n; i++ {
				w.Push(&Event{Time: delays[i]})
			}
			// Let the width, bucket count and overflow heap settle.
			for i := 0; i < 4096+16*n; i++ {
				ev := w.Pop()
				ev.Time += delays[i&4095]
				w.Push(ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := w.Pop()
				ev.Time += delays[i&4095]
				w.Push(ev)
			}
		})
	}
}

// BenchmarkWheelOscillating measures one grow → shrink cycle of the
// pending set per op — the burst and single-step phases of
// TestAllocsOscillatingPending, 600 events — on an engine whose event
// pool and bucket array have already reached their high-water marks.
func BenchmarkWheelOscillating(b *testing.B) {
	_, cycle := oscillating(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkTimeWeightedSet measures the stats-collector update that runs
// on every queue transition.
func BenchmarkTimeWeightedSet(b *testing.B) {
	var w TimeWeighted
	for i := 0; i < b.N; i++ {
		w.Set(float64(i&7), float64(i))
	}
}

// BenchmarkHistogramAdd measures the per-observation cost of the
// streaming latency histogram — paid twice per bus transaction on the
// simulator's hot path, so it must stay at bit-twiddling speed.
func BenchmarkHistogramAdd(b *testing.B) {
	var h Histogram
	rng := NewRNG(1)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Exp(0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(xs[i&4095])
	}
}

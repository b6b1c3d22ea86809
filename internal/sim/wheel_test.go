package sim

import (
	"math"
	"math/rand"
	"testing"
)

// wheelPair drives a TimingWheel and an EventHeap through the same
// operation sequence and asserts they stay observably identical: same
// Len, same Peek, and the same (Time, seq) at every Pop. The heap is
// the obviously-correct oracle; any divergence is a wheel bug.
type wheelPair struct {
	t     *testing.T
	wheel *TimingWheel
	heap  *EventHeap
	// live holds the pending event pairs, indexed in push order;
	// removed pairs are nil'd in place so indices stay stable.
	live [][2]*Event
}

func newWheelPair(t *testing.T) *wheelPair {
	return &wheelPair{t: t, wheel: NewTimingWheel(), heap: NewEventHeap(0)}
}

func (p *wheelPair) push(tm float64) {
	we := &Event{Time: tm}
	he := &Event{Time: tm}
	p.wheel.Push(we)
	p.heap.Push(he)
	if we.Seq() != he.Seq() {
		p.t.Fatalf("push(%v): wheel seq %d, heap seq %d", tm, we.Seq(), he.Seq())
	}
	p.live = append(p.live, [2]*Event{we, he})
}

// forget drops a popped pair from the live set by wheel-event identity.
func (p *wheelPair) forget(we *Event) {
	for i, pair := range p.live {
		if pair[0] == we {
			p.live[i] = [2]*Event{}
			return
		}
	}
	p.t.Fatalf("popped event (t=%v, seq=%d) not in live set", we.Time, we.Seq())
}

func (p *wheelPair) pop() {
	we, he := p.wheel.Pop(), p.heap.Pop()
	p.match("Pop", we, he)
	if we != nil {
		p.forget(we)
	}
}

func (p *wheelPair) popLE(limit float64) {
	we, he := p.wheel.PopLE(limit), p.heap.PopLE(limit)
	p.match("PopLE", we, he)
	if we != nil {
		p.forget(we)
	}
}

func (p *wheelPair) peek() {
	p.match("Peek", p.wheel.Peek(), p.heap.Peek())
}

// removeAt cancels the i'th live pair (no-op when already gone).
func (p *wheelPair) removeAt(i int) {
	if len(p.live) == 0 {
		return
	}
	pair := p.live[i%len(p.live)]
	if pair[0] == nil {
		return
	}
	wok, hok := p.wheel.Remove(pair[0]), p.heap.Remove(pair[1])
	if wok != hok {
		p.t.Fatalf("Remove(t=%v, seq=%d): wheel %v, heap %v",
			pair[1].Time, pair[1].Seq(), wok, hok)
	}
	if wok {
		p.live[i%len(p.live)] = [2]*Event{}
	}
}

func (p *wheelPair) match(op string, we, he *Event) {
	p.t.Helper()
	switch {
	case (we == nil) != (he == nil):
		p.t.Fatalf("%s: wheel %v, heap %v", op, we, he)
	case we != nil && (we.Time != he.Time && !(math.IsNaN(we.Time) && math.IsNaN(he.Time)) || we.Seq() != he.Seq()):
		p.t.Fatalf("%s: wheel (t=%v, seq=%d), heap (t=%v, seq=%d)",
			op, we.Time, we.Seq(), he.Time, he.Seq())
	}
	if wl, hl := p.wheel.Len(), p.heap.Len(); wl != hl {
		p.t.Fatalf("after %s: wheel Len %d, heap Len %d", op, wl, hl)
	}
}

func (p *wheelPair) drain() {
	for p.heap.Len() > 0 {
		p.pop()
	}
	p.pop() // both must agree on empty
}

// TestWheelMatchesHeapRandom runs long random operation sequences over
// several time regimes — heavy ties, fractional spreads, far-future
// outliers that force the overflow level, and exact-boundary values —
// asserting the wheel pops the exact (Time, seq) order the heap does.
func TestWheelMatchesHeapRandom(t *testing.T) {
	regimes := []struct {
		name string
		time func(r *rand.Rand, now float64) float64
	}{
		{"quantized-ties", func(r *rand.Rand, now float64) float64 {
			return now + float64(r.Intn(8))
		}},
		{"fractional", func(r *rand.Rand, now float64) float64 {
			return now + r.Float64()*20
		}},
		{"far-future-mix", func(r *rand.Rand, now float64) float64 {
			if r.Intn(10) == 0 {
				return now + r.Float64()*1e9
			}
			return now + r.Float64()
		}},
		{"extremes", func(r *rand.Rand, now float64) float64 {
			switch r.Intn(6) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.MaxFloat64
			case 2:
				return now // exact tie with the frontier
			default:
				return now + r.Float64()*1e-9
			}
		}},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				r := rand.New(rand.NewSource(seed))
				p := newWheelPair(t)
				now := 0.0
				for op := 0; op < 4000; op++ {
					switch r.Intn(10) {
					case 0, 1, 2, 3:
						p.push(reg.time(r, now))
					case 4, 5:
						if e := p.heap.Peek(); e != nil {
							now = math.Max(now, e.Time)
						}
						p.pop()
					case 6:
						lim := now + r.Float64()*5
						if e := p.heap.peekLEProbe(lim); e {
							now = math.Max(now, lim)
						}
						p.popLE(lim)
					case 7:
						p.peek()
					default:
						p.removeAt(r.Intn(1 + len(p.live)))
					}
				}
				p.drain()
			}
		})
	}
}

// peekLEProbe reports whether the heap's minimum is ≤ limit — a test
// helper so the driver can advance its notion of "now" the way the
// engine's RunUntil would, without popping.
func (h *EventHeap) peekLEProbe(limit float64) bool {
	e := h.Peek()
	return e != nil && e.Time <= limit
}

// TestWheelRebaseAfterDrain empties the window completely, then pushes
// again — the path where the wheel must rebase onto the overflow level
// and where an adversarial width (all gaps zero) must not stall Peek.
func TestWheelRebaseAfterDrain(t *testing.T) {
	p := newWheelPair(t)
	// Same-time burst drives gapEWMA toward zero.
	for i := 0; i < 100; i++ {
		p.push(5)
	}
	for i := 0; i < 100; i++ {
		p.pop()
	}
	// Far-future spread lands in overflow and must migrate on rebase.
	for i := 0; i < 100; i++ {
		p.push(1e12 + float64(i%7))
	}
	p.drain()
}

// TestWheelInfiniteTimes pins the NaN-arithmetic corner: with only
// +Inf events pending the window base is infinite, bucket indices are
// NaN, and the wheel must still pop every event in seq order.
func TestWheelInfiniteTimes(t *testing.T) {
	p := newWheelPair(t)
	for i := 0; i < 10; i++ {
		p.push(math.Inf(1))
	}
	p.push(3) // a finite event behind the infinite ones must pop first
	p.drain()
}

// TestEngineWheelMatchesHeapTrajectory runs the same self-scheduling
// workload on a wheel-backed and a heap-backed engine — the seam
// newEngineOn exists for — and requires bit-identical fire trajectories
// including cancellations.
func TestEngineWheelMatchesHeapTrajectory(t *testing.T) {
	run := func(e *Engine) []float64 {
		r := rand.New(rand.NewSource(42))
		var trace []float64
		var pendingCancel *Event
		var tick func()
		tick = func() {
			trace = append(trace, e.Now())
			if pendingCancel != nil && r.Intn(3) == 0 {
				e.Cancel(pendingCancel)
				pendingCancel = nil
			}
			if len(trace) < 5000 {
				e.Schedule(r.Float64()*float64(1+r.Intn(100)), tick)
				if r.Intn(4) == 0 {
					pendingCancel = e.Schedule(r.Float64()*10, tick)
				}
			}
		}
		e.Schedule(1, tick)
		e.Schedule(1, tick)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	wheelTrace := run(newEngineOn(NewTimingWheel()))
	heapTrace := run(newEngineOn(NewEventHeap(0)))
	if len(wheelTrace) != len(heapTrace) {
		t.Fatalf("trajectory lengths differ: wheel %d, heap %d", len(wheelTrace), len(heapTrace))
	}
	for i := range wheelTrace {
		if wheelTrace[i] != heapTrace[i] {
			t.Fatalf("trajectories diverge at fire %d: wheel t=%v, heap t=%v",
				i, wheelTrace[i], heapTrace[i])
		}
	}
}

// TestWheelReuseMatchesHeap drives the wheel through the grow → shrink
// → regrow cycle of TestAllocsOscillatingPending against the heap
// oracle. Past the first growth, every re-target reslices the
// high-water bucket array, and the pops must still match the heap's.
func TestWheelReuseMatchesHeap(t *testing.T) {
	p := newWheelPair(t)
	now := 0.0
	pop := func() {
		now = p.heap.Peek().Time
		p.pop()
	}
	singles := func() {
		for i := 0; i < oscSingles; i++ {
			p.push(now + 1)
			pop()
		}
	}
	burst := func() {
		for i := 0; i < oscBurst; i++ {
			p.push(now + oscLead + float64(i)*oscSpacing)
		}
		for i := 0; i < oscBurst; i++ {
			pop()
		}
	}
	singles()
	burst()
	high, grown := &p.wheel.buckets[0], len(p.wheel.buckets)
	for c := 0; c < 3; c++ {
		resizes := p.wheel.nResizes
		singles()
		if n := len(p.wheel.buckets); n >= grown {
			t.Fatalf("cycle %d: %d buckets after the single-event steps, want fewer than %d", c, n, grown)
		}
		burst()
		if n := len(p.wheel.buckets); n != grown {
			t.Fatalf("cycle %d: %d buckets after the burst, want %d", c, n, grown)
		}
		if &p.wheel.buckets[0] != high {
			t.Fatalf("cycle %d: regrow within capacity reallocated the bucket array", c)
		}
		if got := p.wheel.nResizes - resizes; got < 2 {
			t.Fatalf("cycle %d: %d resizes, want ≥ 2 (shrink and regrow)", c, got)
		}
	}
	p.drain()
}

// FuzzWheelMatchesHeap feeds arbitrary byte strings as operation
// scripts to the differential driver. Each byte pair is one operation:
// the first selects push/pop/popLE/peek/remove/burst, the second
// supplies the operand (a time offset, a pop limit, a live-set index,
// or a burst size).
func FuzzWheelMatchesHeap(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x40, 0x00})
	f.Add([]byte{0x01, 0xFF, 0x01, 0xFF, 0x40, 0x00, 0x40, 0x00})
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0x80, 0x02, 0xC0, 0x01})
	f.Add(wheelGrowShrinkScript())
	f.Fuzz(func(t *testing.T, script []byte) {
		p := newWheelPair(t)
		now := 0.0
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op >> 6 {
			case 0: // push near now, quantized to force ties
				p.push(now + float64(arg%16))
			case 1: // pop, advancing now
				if e := p.heap.Peek(); e != nil {
					now = math.Max(now, e.Time)
				}
				p.pop()
			case 2: // popLE with a limit derived from arg
				lim := now + float64(arg)/8
				if p.heap.peekLEProbe(lim) {
					now = math.Max(now, lim)
				}
				p.popLE(lim)
			default:
				switch op & 3 {
				case 0:
					p.peek()
				case 1:
					p.removeAt(int(arg))
				default: // burst of 1–255 events one time unit apart
					for j := 0; j < max(int(arg), 1); j++ {
						p.push(now + float64(j))
					}
				}
			}
		}
		p.drain()
	})
}

// wheelGrowShrinkScript is a FuzzWheelMatchesHeap seed that grows,
// shrinks and regrows the bucket array, so fuzzing starts from the
// reslice paths. A full burst overflows the minimum window and grows the
// array at the rebase that admits it. Single events pushed 15 ahead and
// popped walk out of the grown window, and the rebase there shrinks it.
// A walk of unit strides then narrows the bucket width again, so a
// second full burst overflows and regrows within capacity.
func wheelGrowShrinkScript() []byte {
	var s []byte
	burst := func() {
		s = append(s, 0xC2, 0xFF)
		for i := 0; i < 255; i++ {
			s = append(s, 0x40, 0x00)
		}
	}
	walk := func(steps int, stride byte) {
		for i := 0; i < steps; i++ {
			s = append(s, 0x00, stride, 0x40, 0x00)
		}
	}
	burst()
	walk(130, 15)
	walk(400, 1)
	burst()
	return s
}

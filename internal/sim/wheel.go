package sim

import (
	"math"
	"math/bits"
)

// Event.slot sentinels. Non-negative slots are timing-wheel bucket
// indices.
const (
	slotNone     = -1 // not held by a timing wheel
	slotOverflow = -2 // parked in the wheel's sorted overflow level
)

// TimingWheel is a calendar-queue scheduler: an array of time buckets of
// adaptive width covering a sliding window [base, base+len(buckets)·width),
// an occupancy bitmap locating the next non-empty bucket in a few word
// operations, plus a sorted overflow level (a binary heap) for events
// beyond the window. Buckets are intrusive doubly-linked lists through
// the engine's pooled Event structs, so scheduling into the window is a
// handful of stores into cache-hot memory and cancellation is an O(1)
// unlink. Firing is O(1) amortized — the scan frontier `cur` only moves
// forward within a window, resizing keeps the bucket count proportional
// to the pending-event count, and the bucket width tracks the observed
// mean inter-fire gap so expected bucket occupancy stays O(1). The
// bucket and bitmap storage is a high-water mark: a re-target reslices
// it, and only growth past its capacity allocates, so a pending set
// that swings between a few events and hundreds stops allocating once
// it has reached its peak.
// Far-future events pay one O(log n) overflow insertion and one
// O(log n) migration when the window reaches them; the window spans
// ~16× the pending set's expected spread, so only deep think-time
// outliers ever take that path.
//
// Ordering contract: identical to EventHeap — strict (Time, seq) order
// with seq assigned in Push call order. The argument is monotonicity:
// bucketIdx is a weakly monotone pure function of Time (subtraction,
// multiplication by a positive constant, truncation), so an event in a
// lower bucket never has a later Time than one in a higher bucket, equal
// Times always share a bucket, and the per-bucket minimum scan compares
// exact (Time, seq) keys — intra-bucket list order is irrelevant. Events
// that map below the scan frontier are clamped up to it, which preserves
// the invariant: their Time is provably no later than every event in
// higher buckets. The overflow level only holds events that map beyond
// the window, which by the same monotonicity are no earlier than every
// bucketed event.
type TimingWheel struct {
	buckets []*Event // bucket list heads
	bits    []uint64 // occupancy bitmap: bit b set iff buckets[b] is non-nil
	cur     int      // scan frontier: buckets below cur are empty
	base    float64  // time at the left edge of buckets[0]
	width   float64  // bucket span in simulated time
	invW    float64  // 1/width
	nbuckF  float64  // float64(len(buckets)), for the bucketIdx range check
	count   int      // events held in buckets (excludes overflow)

	overflow EventHeap // far-future events, keyed (Time, seq)
	nextSeq  uint64
	peeked   *Event // cached Peek result; nil when invalid

	// Mean inter-fire gap (EWMA over popped event times), the width
	// estimate applied at the next rebase.
	gapEWMA float64
	lastPop float64
	popped  bool

	// Self-measurement totals surfaced through Engine.Counters: pushes
	// that landed in the overflow level, window slides, and the slides
	// that also re-targeted the bucket count. Deterministic for a fixed
	// push/pop sequence, so they double as regression canaries for the
	// adaptive sizing heuristics.
	nOverflow uint64
	nRebases  uint64
	nResizes  uint64
}

const (
	wheelMinBuckets = 64
	wheelMaxBuckets = 1 << 16
	// wheelSpread scales the bucket count relative to the pending-event
	// count. Pending events spread over roughly pending·gap of simulated
	// time, and the window spans buckets·width ≈ spread·pending·gap, so
	// the overflow level only sees the distribution tail beyond that.
	wheelSpread = 16
	// wheelMinWidth keeps invW finite even if the observed gaps collapse
	// to a subnormal average (e.g. long runs of simultaneous events).
	wheelMinWidth = 1e-300
)

// NewTimingWheel returns an empty wheel with the default bucket count
// and unit bucket width; both adapt to the workload at each rebase.
func NewTimingWheel() *TimingWheel {
	return &TimingWheel{
		buckets: make([]*Event, wheelMinBuckets),
		bits:    make([]uint64, wheelMinBuckets/64),
		width:   1,
		invW:    1,
		nbuckF:  wheelMinBuckets,
	}
}

// Len reports the number of pending events.
func (w *TimingWheel) Len() int { return w.count + w.overflow.Len() }

// Push inserts an event and assigns its insertion sequence number.
func (w *TimingWheel) Push(e *Event) {
	e.seq = w.nextSeq
	w.nextSeq++
	w.peeked = nil
	f := (e.Time - w.base) * w.invW
	if !(f < w.nbuckF) {
		// Beyond the window (or NaN arithmetic from an infinite base):
		// park in the sorted overflow level.
		e.slot = slotOverflow
		w.nOverflow++
		w.overflow.pushKeyed(e)
		return
	}
	i := 0
	if f > 0 {
		i = int(f)
	}
	if i < w.cur {
		// Clamp early times up to the scan frontier; exact (Time, seq)
		// comparison inside the bucket keeps the pop order right.
		i = w.cur
	}
	w.place(e, i)
}

func (w *TimingWheel) place(e *Event, i int) {
	e.slot = i
	e.prev = nil
	head := w.buckets[i]
	e.next = head
	if head != nil {
		head.prev = e
	} else {
		w.bits[i>>6] |= 1 << (i & 63)
	}
	w.buckets[i] = e
	w.count++
}

// Peek returns the earliest event without removing it, or nil when empty.
func (w *TimingWheel) Peek() *Event {
	if w.peeked != nil {
		return w.peeked
	}
	for {
		if i := w.nextBucket(); i >= 0 {
			w.cur = i
			best := w.buckets[i]
			for e := best.next; e != nil; e = e.next {
				if e.Time < best.Time || (e.Time == best.Time && e.seq < best.seq) {
					best = e
				}
			}
			w.peeked = best
			return best
		}
		if w.overflow.Len() == 0 {
			return nil
		}
		w.rebase()
	}
}

// nextBucket returns the index of the first non-empty bucket at or after
// the scan frontier, or -1 when the rest of the window is empty — a
// bitmap sweep, so skipping a run of empty buckets costs one word
// operation per 64 of them rather than a pointer load each.
func (w *TimingWheel) nextBucket() int {
	wi := w.cur >> 6
	if wi >= len(w.bits) {
		return -1
	}
	if word := w.bits[wi] >> (w.cur & 63); word != 0 {
		return w.cur + bits.TrailingZeros64(word)
	}
	for wi++; wi < len(w.bits); wi++ {
		if word := w.bits[wi]; word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Pop removes and returns the earliest event, or nil when empty.
func (w *TimingWheel) Pop() *Event {
	return w.PopLE(math.Inf(1))
}

// PopLE removes and returns the earliest event whose time is ≤ limit,
// or nil when the wheel is empty or the earliest event lies beyond the
// limit — the engine's fused peek-and-pop, saving a dispatch per fired
// event on the hot loop.
func (w *TimingWheel) PopLE(limit float64) *Event {
	e := w.Peek()
	if e == nil || e.Time > limit {
		return nil
	}
	w.unbucket(e)
	w.peeked = nil
	e.slot = slotNone
	if w.popped {
		if gap := e.Time - w.lastPop; gap >= 0 && gap < math.MaxFloat64 {
			w.gapEWMA += (gap - w.gapEWMA) * 0.125
		}
	}
	w.lastPop = e.Time
	w.popped = true
	return e
}

// Remove cancels a pending event by identity. It returns false when the
// event is not held by the wheel (already fired or cancelled).
func (w *TimingWheel) Remove(e *Event) bool {
	switch {
	case e.slot >= 0:
		if e.slot >= len(w.buckets) {
			return false
		}
		if w.peeked == e {
			w.peeked = nil
		}
		w.unbucket(e)
		e.slot = slotNone
		return true
	case e.slot == slotOverflow:
		if !w.overflow.Remove(e) {
			return false
		}
		e.slot = slotNone
		return true
	default:
		return false
	}
}

// unbucket unlinks e from its bucket list in O(1), clearing the
// occupancy bit when the bucket empties. The stale next/prev pointers
// left on e retain nothing: events are pooled per engine and live for
// the whole run.
func (w *TimingWheel) unbucket(e *Event) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		w.buckets[e.slot] = e.next
		if e.next == nil {
			w.bits[e.slot>>6] &^= 1 << (e.slot & 63)
		}
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	w.count--
}

// rebase slides the window forward once every bucket has drained:
// it re-estimates the bucket width from the observed inter-fire gap,
// resizes the bucket array to track the pending-event count, anchors the
// window at the overflow minimum, and migrates every overflow event that
// now maps inside the window. Each event migrates at most once, so the
// O(log n) heap pops amortize to a constant per far-future event.
func (w *TimingWheel) rebase() {
	w.nRebases++
	if w.gapEWMA > 0 && w.gapEWMA < math.MaxFloat64 {
		// Half the mean inter-fire gap: the bitmap makes empty buckets
		// nearly free, so erring toward sparse buckets keeps the
		// per-bucket minimum scans short.
		w.width = math.Max(w.gapEWMA*0.5, wheelMinWidth)
		w.invW = 1 / w.width
	}
	w.resize()
	w.base = w.overflow.Peek().Time
	w.cur = 0
	n := len(w.buckets)
	for {
		e := w.overflow.Peek()
		if e == nil {
			return
		}
		f := (e.Time - w.base) * w.invW
		i := 0
		switch {
		case f < float64(n):
			if f > 0 {
				i = int(f)
			}
		case w.count > 0:
			// Still beyond the window: it and everything after it (the
			// overflow pops in (Time, seq) order) stay parked.
			return
		default:
			// The window head itself maps nowhere (NaN from an infinite
			// base). Force it into bucket 0 so Peek always progresses;
			// exact (Time, seq) comparison inside the bucket keeps the
			// order right.
		}
		w.overflow.Pop()
		w.place(e, i)
	}
}

// resize re-targets the bucket count to wheelSpread× the pending events
// (clamped to [wheelMinBuckets, wheelMaxBuckets]) so the window span
// comfortably covers the spread of the pending set. Growth is immediate;
// shrinking waits for a 4× overshoot so an oscillating load doesn't
// re-target on every swing. Called only from rebase, when every bucket
// is empty, so no event moves and the bitmap is all zero. That is what
// makes reslicing safe: slots past len were empty when a shrink cut them
// off and nothing has written them since, so a shrink, or a regrow
// within capacity, exposes only empty slots. Only growth past the
// high-water capacity allocates.
func (w *TimingWheel) resize() {
	total := w.overflow.Len()
	target := wheelMinBuckets
	for target < wheelSpread*total && target < wheelMaxBuckets {
		target <<= 1
	}
	if target > len(w.buckets) || target*4 <= len(w.buckets) {
		w.nResizes++
		if target > cap(w.buckets) {
			w.buckets = make([]*Event, target)
			w.bits = make([]uint64, target/64)
		} else {
			w.buckets = w.buckets[:target]
			w.bits = w.bits[:target/64]
		}
	}
	w.nbuckF = float64(len(w.buckets))
}

// counters reports the wheel's self-measurement totals; the seam
// Engine.Counters reads through the scheduler interface.
func (w *TimingWheel) counters() (overflow, rebases, resizes uint64) {
	return w.nOverflow, w.nRebases, w.nResizes
}

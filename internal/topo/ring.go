package topo

// reqRing is a claimant queue: a FIFO of in-flight requests, each with
// the time it joined the queue, backed by a power-of-two ring buffer.
// Keeping the join time in the slot lets the grant path read a
// request's wait from the contiguous ring rather than from the request.
// Claimant queues live on the dispatch hot path, so they reuse their
// storage forever. Popped slots are left as they are: requests are
// pooled for the fabric's lifetime, so a stale slot pins nothing.
type reqRing struct {
	buf  []queueSlot
	head int
	n    int
}

// queueSlot is one reqRing entry.
type queueSlot struct {
	r  *request
	at float64 // when r joined the queue
}

// push appends r, which joined the queue at time at, growing the buffer
// (doubling, so amortized O(1)) only when full. Finite claimant queues
// never grow after New sizes them.
func (q *reqRing) push(r *request, at float64) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = queueSlot{r, at}
	q.n++
}

// pop removes the oldest entry and returns its request and join time.
// Callers check len first.
func (q *reqRing) pop() (*request, float64) {
	e := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e.r, e.at
}

// len reports the number of queued requests.
func (q *reqRing) len() int { return q.n }

// at returns the i-th oldest request without removing it, for
// inspection in invariant checks. Callers keep i < len.
func (q *reqRing) at(i int) *request { return q.buf[(q.head+i)&(len(q.buf)-1)].r }

// grow doubles the buffer, unrolling the wrapped contents to the front
// so the ring arithmetic stays a single mask.
func (q *reqRing) grow() {
	size := 2 * len(q.buf)
	if size < 2 {
		size = 2
	}
	buf := make([]queueSlot, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// reserve pre-sizes the ring to hold at least c entries without growing.
func (q *reqRing) reserve(c int) {
	size := 1
	for size < c {
		size <<= 1
	}
	if size > len(q.buf) {
		q.buf = make([]queueSlot, size)
	}
}

// Package topo is busnet's discrete-event model: a directed acyclic
// fabric of bus segments connected by bridges. Each segment is one
// arbitration point in front of Buses identical buses, in either of the
// source paper's two regimes: unbuffered, where a station blocks from
// the moment it issues a request until the fabric has served it, and
// buffered, where requests queue at the station's interface (finite or
// unbounded capacity) and the station keeps computing. A segment's
// claimants are its local stations and the bridges delivering traffic
// from upstream segments. A request issued by a station follows its
// segment's route hop by hop: it is arbitrated onto a bus of the
// current segment, served, and handed through the connecting bridge
// into the next segment's claimant queue. The paper's single bus is the
// one-segment fabric with no route.
//
// Bridges have their own finite buffers, and the fabric models
// blocking-after-service (the tandem-blocking discipline): a bus that
// finishes serving a request whose next bridge is full stays occupied,
// holding the request, until the downstream segment drains a slot —
// backpressure propagates upstream through the chain of held buses.
// Because the segment graph is acyclic (validated), the chain of
// releases always terminates and the fabric cannot deadlock.
//
// All randomness flows through the single per-run RNG in a fixed
// order, so a run is deterministic in (Config, seed, stream); the
// golden tests in pkg/busnet pin the one-segment trajectory bit for
// bit. Per-segment metrics carry utilization, queue, wait and response
// statistics plus the time-averaged blocked-bus fraction; per-flow
// metrics add end-to-end (issue → fabric exit) response statistics for
// every station-bearing segment.
package topo

import (
	"fmt"
	"math"

	"github.com/busnet/busnet/internal/servdist"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/workload"
)

// Mode selects a station interface's regime, the paper's two.
type Mode int

const (
	// Unbuffered blocks the issuing station until its request exits the
	// fabric.
	Unbuffered Mode = iota
	// Buffered queues requests at the station interface so the station
	// can continue thinking, up to BufferCap outstanding requests.
	Buffered
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Unbuffered:
		return "unbuffered"
	case Buffered:
		return "buffered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Infinite marks an unbounded buffer — per-station interface queues and
// bridge buffers alike.
const Infinite = -1

// SegmentConfig describes one bus segment: an arbitration point with
// Buses identical buses, local request-generating stations, and a route
// its stations' requests follow through the fabric.
type SegmentConfig struct {
	// Name identifies the segment in metrics; must be unique when set.
	Name string
	// Buses is the number of identical parallel buses, m ≥ 1 (0 → 1).
	Buses int
	// ServiceRate is μ, the per-bus service rate.
	ServiceRate float64
	// Service optionally shapes the service time, sampled once per
	// dispatch (nil → exponential at ServiceRate, the paper's model).
	Service servdist.Dist
	// Arbiter picks the next claimant — local stations first (indices
	// 0..Stations-1), then one claimant per inbound bridge in link
	// order. Nil → round-robin. Sized arbiters must match that claimant
	// count.
	Arbiter Arbiter
	// Stations is the number of local request-generating stations ≥ 0.
	// Zero makes this a pure transit segment (a bridge hop).
	Stations int
	// ThinkRate is λ, each station's request rate while thinking.
	ThinkRate float64
	// Sources optionally shapes each station's request generation, one
	// per station, consulted every time the station re-enters the
	// thinking state (nil → Poisson at ThinkRate, the paper's model).
	Sources []workload.Source
	// Mode is the station-interface regime: Unbuffered blocks the
	// issuing station until its request exits the fabric (the multi-hop
	// extension of the paper's blocking regime); Buffered queues at the
	// local interface up to BufferCap.
	Mode Mode
	// BufferCap is the per-station interface capacity in Buffered mode;
	// Infinite for unbounded.
	BufferCap int
	// Route lists the segments a local request visits after this one, in
	// hop order; each consecutive pair must be connected by a link. Empty
	// means requests complete locally (the single-bus model). Transit
	// segments must leave it empty.
	Route []int
}

// buses resolves the configured bus count: 0 means one.
func (c SegmentConfig) buses() int {
	if c.Buses == 0 {
		return 1
	}
	return c.Buses
}

// LinkConfig is a directed bridge between two segments with its own
// finite buffer.
type LinkConfig struct {
	From, To int
	// Depth is the bridge buffer capacity ≥ 1, or Infinite. A request
	// finishing service at From when the bridge is full blocks its bus
	// (blocking-after-service) until To drains a slot.
	Depth int
}

// Config describes one fabric instance.
type Config struct {
	Segments []SegmentConfig
	Links    []LinkConfig
	// Quantiles enables per-hop wait/response histograms and per-flow
	// end-to-end response histograms. Off by default: each Histogram.Add
	// sits on the dispatch or completion hot path. Histograms draw
	// nothing from the RNG, so toggling never changes the trajectory.
	Quantiles bool
}

// claimants returns segment k's claimant count: local stations plus one
// per inbound link.
func (c Config) claimants(k int) int {
	n := c.Segments[k].Stations
	for _, l := range c.Links {
		if l.To == k {
			n++
		}
	}
	return n
}

// Validate reports the first configuration error, or nil. Beyond the
// per-segment checks, it requires the link graph to be a DAG
// (acyclicity is what guarantees blocking-after-service cannot
// deadlock), every route to follow existing links, and every link and
// transit segment to lie on at least one route.
func (c Config) Validate() error {
	if len(c.Segments) == 0 {
		return fmt.Errorf("topo: no segments")
	}
	names := make(map[string]int, len(c.Segments))
	stations := 0
	for k, s := range c.Segments {
		if s.Name != "" {
			if prev, dup := names[s.Name]; dup {
				return fmt.Errorf("topo: segments %d and %d share the name %q", prev, k, s.Name)
			}
			names[s.Name] = k
		}
		if s.Buses < 0 {
			return fmt.Errorf("topo: segment %d: Buses = %d, need ≥ 1 (or 0 for one)", k, s.Buses)
		}
		if !(s.ServiceRate > 0) || math.IsInf(s.ServiceRate, 1) {
			return fmt.Errorf("topo: segment %d: ServiceRate = %v, need finite and > 0", k, s.ServiceRate)
		}
		if s.Stations < 0 {
			return fmt.Errorf("topo: segment %d: Stations = %d, need ≥ 0", k, s.Stations)
		}
		stations += s.Stations
		if s.Stations == 0 {
			if len(s.Route) != 0 {
				return fmt.Errorf("topo: segment %d has a route but no stations to originate it", k)
			}
			if s.Sources != nil {
				return fmt.Errorf("topo: segment %d has sources but no stations", k)
			}
		} else {
			if s.Sources == nil && (!(s.ThinkRate > 0) || math.IsInf(s.ThinkRate, 1)) {
				return fmt.Errorf("topo: segment %d: ThinkRate = %v, need finite and > 0", k, s.ThinkRate)
			}
			if s.Sources != nil && len(s.Sources) != s.Stations {
				return fmt.Errorf("topo: segment %d: %d sources for %d stations", k, len(s.Sources), s.Stations)
			}
			for i, src := range s.Sources {
				if src == nil {
					return fmt.Errorf("topo: segment %d: Sources[%d] is nil", k, i)
				}
			}
			if s.Mode != Unbuffered && s.Mode != Buffered {
				return fmt.Errorf("topo: segment %d: unknown mode %d", k, int(s.Mode))
			}
			if s.Mode == Buffered && s.BufferCap != Infinite && s.BufferCap < 1 {
				return fmt.Errorf("topo: segment %d: BufferCap = %d, need ≥ 1 or Infinite", k, s.BufferCap)
			}
		}
		for h, hop := range s.Route {
			if hop < 0 || hop >= len(c.Segments) {
				return fmt.Errorf("topo: segment %d route hop %d = %d, need in [0, %d)", k, h, hop, len(c.Segments))
			}
		}
	}
	if stations == 0 {
		return fmt.Errorf("topo: no segment has stations — nothing generates requests")
	}
	linkAt := make(map[[2]int]int, len(c.Links))
	for i, l := range c.Links {
		if l.From < 0 || l.From >= len(c.Segments) || l.To < 0 || l.To >= len(c.Segments) {
			return fmt.Errorf("topo: link %d connects %d → %d, segments are [0, %d)", i, l.From, l.To, len(c.Segments))
		}
		if l.From == l.To {
			return fmt.Errorf("topo: link %d is a self-loop on segment %d", i, l.From)
		}
		if prev, dup := linkAt[[2]int{l.From, l.To}]; dup {
			return fmt.Errorf("topo: links %d and %d both connect %d → %d", prev, i, l.From, l.To)
		}
		if l.Depth != Infinite && l.Depth < 1 {
			return fmt.Errorf("topo: link %d: Depth = %d, need ≥ 1 or Infinite", i, l.Depth)
		}
		linkAt[[2]int{l.From, l.To}] = i
	}
	if err := c.checkAcyclic(); err != nil {
		return err
	}
	linkUsed := make([]bool, len(c.Links))
	segOnRoute := make([]bool, len(c.Segments))
	for k, s := range c.Segments {
		prev := k
		for h, hop := range s.Route {
			li, ok := linkAt[[2]int{prev, hop}]
			if !ok {
				return fmt.Errorf("topo: segment %d route hop %d needs a link %d → %d", k, h, prev, hop)
			}
			linkUsed[li] = true
			segOnRoute[hop] = true
			prev = hop
		}
	}
	for i, used := range linkUsed {
		if !used {
			return fmt.Errorf("topo: link %d (%d → %d) is on no route", i, c.Links[i].From, c.Links[i].To)
		}
	}
	for k, s := range c.Segments {
		if s.Stations == 0 && !segOnRoute[k] {
			return fmt.Errorf("topo: segment %d has no stations and is on no route", k)
		}
	}
	// Sized arbiters (weighted round-robin) must cover every claimant:
	// local stations plus inbound bridges.
	for k, s := range c.Segments {
		if sized, ok := s.Arbiter.(interface{ Stations() int }); ok {
			if want := c.claimants(k); sized.Stations() != want {
				return fmt.Errorf("topo: segment %d: arbiter %q sized for %d claimants, segment has %d (stations + inbound bridges)",
					k, s.Arbiter.Name(), sized.Stations(), want)
			}
		}
	}
	return nil
}

// checkAcyclic runs Kahn's algorithm over the link graph. A cycle of
// bridges would let blocking-after-service form a circular wait.
func (c Config) checkAcyclic() error {
	indeg := make([]int, len(c.Segments))
	for _, l := range c.Links {
		indeg[l.To]++
	}
	queue := make([]int, 0, len(c.Segments))
	for k, d := range indeg {
		if d == 0 {
			queue = append(queue, k)
		}
	}
	seen := 0
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		seen++
		for _, l := range c.Links {
			if l.From == k {
				if indeg[l.To]--; indeg[l.To] == 0 {
					queue = append(queue, l.To)
				}
			}
		}
	}
	if seen != len(c.Segments) {
		return fmt.Errorf("topo: the bridge graph has a cycle — blocking-after-service would deadlock")
	}
	return nil
}

// request is one in-flight transaction that crosses bridges, pooled on
// the fabric. path is shared with every request of its home segment;
// issuedAt keeps the original issue time for end-to-end response. The
// time a request joined its current claimant queue lives in the queue
// slot, not here (see reqRing). A standalone segment's requests never
// leave it, and its queue and bus slots already hold their station and
// times, so it uses no request objects: its slots carry a nil request.
type request struct {
	path     *path
	issuedAt float64
	local    int32 // station index within the home segment
	hop      int32 // index into path.segs of the segment holding it
}

// stall is a request issued at a full buffered-finite interface, held
// at its station until the queue drains a slot. It joins the queue as
// of its issue time at.
type stall struct {
	r    *request
	at   float64
	held bool
}

// busSlot is what a segment keeps about the request occupying one of
// its buses. The completion path reads it here rather than chasing the
// request.
type busSlot struct {
	r        *request
	claimant int     // claimant queue the request was granted from; -1 while idle
	start    float64 // dispatch time
	enq      float64 // when the request joined that claimant queue
}

// path is the precomputed route of one home segment: the full segment
// sequence (segs[0] is home) and the link crossed after each hop.
type path struct {
	segs  []int
	links []*link // links[h] connects segs[h] → segs[h+1]
}

// link is a bridge. Its buffer is the destination segment's claimant
// queue at index claimant; waiters holds upstream buses blocked after
// service, oldest first.
type link struct {
	cfg      LinkConfig
	idx      int // index in Config.Links, identifying it to probes
	from, to *segment
	claimant int
	waiters  []blockedEntry
}

// blockedEntry identifies one blocked upstream bus; the held request is
// seg.onBus[b].r.
type blockedEntry struct {
	seg   *segment
	b     int
	since float64 // when the bus blocked, for BridgeRelease's blockedFor
}

// hasSpace reports whether the bridge can accept one more request.
func (l *link) hasSpace() bool {
	return l.cfg.Depth == Infinite || l.to.claimQ[l.claimant].len() < l.cfg.Depth
}

// advance moves r through the bridge into the destination's claimant
// queue. Callers kick the destination's dispatch when appropriate.
func (l *link) advance(r *request, now float64) {
	r.hop++
	l.to.enqueue(l.claimant, r, now)
	f := l.to.fab
	f.crossings++
	if f.probe != nil {
		f.probe.BridgeEnqueue(now, l.idx, l.to.claimQ[l.claimant].len())
	}
}

// admitBlocked releases the oldest blocked upstream bus into the slot a
// pop just freed: the upstream hop completes now (its response includes
// the blocked time), the request crosses the bridge, and the freed
// upstream bus may dispatch — which can recursively release buses
// further upstream. The link graph is a DAG, so the recursion depth is
// bounded by the longest path.
func (l *link) admitBlocked(now float64) {
	if len(l.waiters) == 0 {
		return
	}
	e := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	us, b := e.seg, e.b
	if f := us.fab; f.probe != nil {
		f.probe.BridgeRelease(now, l.idx, us.idx, b, now-e.since)
	}
	r := us.onBus[b].r
	us.depart(b, now)
	us.blocked--
	us.blockedTW.Set(float64(us.blocked)/float64(us.nBuses), now)
	l.advance(r, now)
	us.tryDispatch()
}

// segment is the runtime state of one arbitration point.
type segment struct {
	idx     int
	cfg     SegmentConfig
	fab     *Fabric
	eng     *sim.Engine
	rng     *sim.RNG
	nBuses  int
	path    *path // nil for transit segments
	sources []workload.Source
	service servdist.Dist
	arbiter Arbiter
	// standalone marks a station segment with no route and no inbound
	// bridge, the paper's single bus: every request it serves is its
	// own and exits on completion. Its queue and bus slots hold all a
	// request needs, so it allocates no request objects, and its flow
	// statistics are its hop statistics, not collected twice.
	standalone bool

	claimQ     []reqRing // per-claimant FIFO: stations, then inbound bridges
	pending    []bool    // claimQ[j] is nonempty
	inbound    []*link   // claimant Stations+i's inbound link
	stalled    []stall   // Buffered finite only: per-station request held at a full interface
	queued     int       // waiting requests across all claimant queues
	busy       int       // buses occupied: serving or blocked-after-service
	blocked    int       // buses held by a full downstream bridge
	onBus      []busSlot // per-bus occupant
	completeFn []func()
	issueFn    []func()

	util        sim.TimeWeighted
	blockedTW   sim.TimeWeighted
	busUtil     []sim.TimeWeighted
	qlen        sim.TimeWeighted
	wait        sim.Tally // claimant-queue arrival → service start, per hop
	resp        sim.Tally // claimant-queue arrival → segment departure, per hop
	waitHist    *sim.Histogram
	respHist    *sim.Histogram
	issued      uint64
	completions uint64
	grants      []uint64
	flow        *flowStats // station segments that are not standalone; nil otherwise
}

// flowStats records the end-to-end (issue → fabric exit) response of
// the requests issued at one station segment.
type flowStats struct {
	resp sim.Tally
	hist *sim.Histogram
	done uint64
}

// Fabric is the simulated system. It is not safe for concurrent use;
// all mutation happens inside engine callbacks.
type Fabric struct {
	eng        *sim.Engine
	rng        *sim.RNG
	segs       []*segment
	links      []*link
	statsStart float64
	free       []*request // request pool
	live       int        // requests issued and not yet exited

	probe     Probe  // nil-by-default observability seam
	stalls    uint64 // requests held at a full buffered-finite interface
	crossings uint64 // requests handed through any bridge
	blocks    uint64 // blocking-after-service events
}

// New builds a fabric on the given engine and RNG. Start must be called
// to schedule the initial think completions.
func New(cfg Config, eng *sim.Engine, rng *sim.RNG) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{eng: eng, rng: rng}
	now := eng.Now()
	f.segs = make([]*segment, len(cfg.Segments))
	for k, sc := range cfg.Segments {
		s := &segment{
			idx:     k,
			cfg:     sc,
			fab:     f,
			eng:     eng,
			rng:     rng,
			nBuses:  sc.buses(),
			onBus:   make([]busSlot, sc.buses()),
			busUtil: make([]sim.TimeWeighted, sc.buses()),
		}
		s.sources = sc.Sources
		if s.sources == nil && sc.Stations > 0 {
			s.sources = make([]workload.Source, sc.Stations)
			for i := range s.sources {
				src, err := workload.Spec{}.NewSource(sc.ThinkRate)
				if err != nil {
					return nil, err
				}
				s.sources[i] = src
			}
		}
		s.service = sc.Service
		if s.service == nil {
			d, err := servdist.Spec{}.NewDist(sc.ServiceRate)
			if err != nil {
				return nil, err
			}
			s.service = d
		}
		s.arbiter = sc.Arbiter
		if s.arbiter == nil {
			s.arbiter = NewRoundRobin()
		}
		if cfg.Quantiles {
			s.waitHist = new(sim.Histogram)
			s.respHist = new(sim.Histogram)
		}
		s.issueFn = make([]func(), sc.Stations)
		if sc.Mode == Buffered && sc.BufferCap != Infinite {
			s.stalled = make([]stall, sc.Stations)
		}
		for i := range s.issueFn {
			s.issueFn[i] = func() { s.issue(i) }
		}
		s.completeFn = make([]func(), s.nBuses)
		for b := range s.completeFn {
			s.onBus[b].claimant = -1
			s.completeFn[b] = func() { s.complete(b) }
			s.busUtil[b].Set(0, now)
		}
		s.util.Set(0, now)
		s.blockedTW.Set(0, now)
		s.qlen.Set(0, now)
		f.segs[k] = s
	}
	// Wire claimant queues: local stations first, then inbound bridges
	// in link order — the indexing sized arbiters are validated against.
	f.links = make([]*link, len(cfg.Links))
	for i, lc := range cfg.Links {
		f.links[i] = &link{cfg: lc, idx: i, from: f.segs[lc.From], to: f.segs[lc.To]}
	}
	for k, s := range f.segs {
		n := s.cfg.Stations
		for i, lc := range cfg.Links {
			if lc.To == k {
				f.links[i].claimant = n
				s.inbound = append(s.inbound, f.links[i])
				n++
			}
		}
		s.claimQ = make([]reqRing, n)
		s.pending = make([]bool, n)
		s.grants = make([]uint64, n)
		// A station queue holds at most one request when unbuffered and
		// BufferCap when buffered-finite; sizing its ring up front keeps
		// the queue path allocation-free.
		depth := 1
		if s.cfg.Mode == Buffered {
			depth = s.cfg.BufferCap
		}
		for i := 0; i < s.cfg.Stations && depth != Infinite; i++ {
			s.claimQ[i].reserve(depth)
		}
		for _, l := range s.inbound {
			if l.cfg.Depth != Infinite {
				s.claimQ[l.claimant].reserve(l.cfg.Depth)
			}
		}
		s.standalone = s.cfg.Stations > 0 && len(s.cfg.Route) == 0 && len(s.inbound) == 0
		if s.cfg.Stations > 0 && !s.standalone {
			s.flow = new(flowStats)
			if cfg.Quantiles {
				s.flow.hist = new(sim.Histogram)
			}
		}
	}
	// Precompute each station segment's path once; every request of the
	// segment shares it.
	linkAt := make(map[[2]int]*link, len(cfg.Links))
	for _, l := range f.links {
		linkAt[[2]int{l.cfg.From, l.cfg.To}] = l
	}
	for k, s := range f.segs {
		if s.cfg.Stations == 0 {
			continue
		}
		p := &path{segs: make([]int, 1, 1+len(s.cfg.Route))}
		p.segs[0] = k
		prev := k
		for _, hop := range s.cfg.Route {
			p.links = append(p.links, linkAt[[2]int{prev, hop}])
			p.segs = append(p.segs, hop)
			prev = hop
		}
		s.path = p
	}
	f.statsStart = now
	return f, nil
}

// Start schedules the first think completion for every station, in
// segment order then station order.
func (f *Fabric) Start() {
	for _, s := range f.segs {
		for i := 0; i < s.cfg.Stations; i++ {
			s.scheduleThink(i)
		}
	}
}

// newRequest takes a pooled request for station i of segment s.
func (f *Fabric) newRequest(s *segment, i int, now float64) *request {
	var r *request
	if n := len(f.free); n > 0 {
		r = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		r = new(request)
	}
	r.path = s.path
	r.local = int32(i)
	r.hop = 0
	r.issuedAt = now
	return r
}

// release returns an exited request to the pool.
func (f *Fabric) release(r *request) {
	r.path = nil
	f.free = append(f.free, r)
}

// Live returns the number of requests issued and not yet exited —
// waiting, stalled, in service, or blocked anywhere in the fabric.
// Exposed for conservation checks in tests.
func (f *Fabric) Live() int { return f.live }

func (s *segment) scheduleThink(i int) {
	s.eng.Schedule(s.sources[i].Next(s.rng), s.issueFn[i])
}

// issue fires when station i of this segment finishes thinking and
// presents a request to its interface.
func (s *segment) issue(i int) {
	now := s.eng.Now()
	s.issued++
	s.fab.live++
	var r *request
	if !s.standalone {
		r = s.fab.newRequest(s, i, now)
	}
	switch s.cfg.Mode {
	case Unbuffered:
		// The station blocks: no further thinking is scheduled until its
		// request exits the fabric.
		s.enqueue(i, r, now)
		s.tryDispatch()
	case Buffered:
		if s.cfg.BufferCap == Infinite || s.claimQ[i].len() < s.cfg.BufferCap {
			s.enqueue(i, r, now)
			s.scheduleThink(i)
			s.tryDispatch()
		} else {
			// Interface full: the request is held at the station, which
			// stalls until the segment drains a slot. It joins the queue
			// as of its issue time, so the stall counts as waiting.
			s.stalled[i] = stall{r: r, at: now, held: true}
			s.fab.stalls++
			if p := s.fab.probe; p != nil {
				p.HopStall(now, s.idx, i)
			}
		}
	}
}

func (s *segment) enqueue(j int, r *request, at float64) {
	s.claimQ[j].push(r, at)
	s.pending[j] = true
	s.queued++
	s.qlen.Set(float64(s.queued), s.eng.Now())
}

// freeBus returns the lowest-numbered idle bus; callers guarantee one
// exists. Blocked buses are occupied, never returned. The low-index
// preference concentrates load on bus 0 — visible in the per-bus
// utilizations — without affecting any aggregate: the buses are
// identical and memoryless.
func (s *segment) freeBus() int {
	for b := range s.onBus {
		if s.onBus[b].claimant < 0 {
			return b
		}
	}
	panic("topo: freeBus called with every bus occupied")
}

// tryDispatch grants waiting requests to the arbiter's picks while any
// bus is idle and any claimant has a waiting request. With one bus this
// dispatches at most one request per call; with m buses it drains up to
// m grants back to back at the same instant, each onto the
// lowest-numbered free bus. Popping a station's queue admits its
// stalled request; popping a bridge claimant frees a bridge slot and
// therefore releases the oldest blocked upstream bus.
func (s *segment) tryDispatch() {
	for s.busy < s.nBuses && s.queued > 0 {
		now := s.eng.Now()
		j := s.arbiter.Select(s.pending)
		r, at := s.claimQ[j].pop()
		s.pending[j] = s.claimQ[j].len() > 0
		s.queued--
		s.qlen.Set(float64(s.queued), now)
		s.grants[j]++
		s.wait.Add(now - at)
		if s.waitHist != nil {
			s.waitHist.Add(now - at)
		}

		if j >= s.cfg.Stations {
			// Popping freed a bridge slot; pull the oldest blocked
			// upstream bus through it.
			s.inbound[j-s.cfg.Stations].admitBlocked(now)
		} else if s.stalled != nil && s.stalled[j].held {
			// Popping freed a slot at interface j; admit the stalled
			// request and let the station think again.
			st := s.stalled[j]
			s.stalled[j] = stall{}
			s.enqueue(j, st.r, st.at)
			s.scheduleThink(j)
		}

		b := s.freeBus()
		s.onBus[b] = busSlot{r: r, claimant: j, start: now, enq: at}
		s.busy++
		s.util.Set(float64(s.busy)/float64(s.nBuses), now)
		s.busUtil[b].Set(1, now)
		if p := s.fab.probe; p != nil {
			p.HopGrant(now, s.idx, j, b, now-at)
		}
		s.eng.Schedule(s.service.Sample(s.rng), s.completeFn[b])
	}
}

// depart records the end of the visit of bus b's request to this
// segment and frees the bus. It never draws from the RNG.
func (s *segment) depart(b int, now float64) {
	o := &s.onBus[b]
	s.resp.Add(now - o.enq)
	if s.respHist != nil {
		s.respHist.Add(now - o.enq)
	}
	s.completions++
	o.r, o.claimant = nil, -1
	s.busy--
	s.util.Set(float64(s.busy)/float64(s.nBuses), now)
	s.busUtil[b].Set(0, now)
	if p := s.fab.probe; p != nil {
		p.HopComplete(now, s.idx, b, now-o.start)
	}
}

// complete fires when bus b of this segment finishes its transaction.
func (s *segment) complete(b int) {
	now := s.eng.Now()
	if s.standalone {
		// The request exits where it was issued: per-hop stats, free the
		// bus, release the blocked station, dispatch. The station is the
		// claimant it was granted from.
		j := s.onBus[b].claimant
		s.depart(b, now)
		s.fab.live--
		if s.cfg.Mode == Unbuffered {
			s.scheduleThink(j)
		}
		s.tryDispatch()
		return
	}
	r := s.onBus[b].r
	if int(r.hop) == len(r.path.segs)-1 {
		// Final hop: the request exits the fabric, in the standalone
		// order with the flow statistics added.
		s.depart(b, now)
		home := s.fab.segs[r.path.segs[0]]
		flow := home.flow
		flow.resp.Add(now - r.issuedAt)
		if flow.hist != nil {
			flow.hist.Add(now - r.issuedAt)
		}
		flow.done++
		s.fab.live--
		if home.cfg.Mode == Unbuffered {
			home.scheduleThink(int(r.local))
		}
		s.fab.release(r)
		s.tryDispatch()
		return
	}
	l := r.path.links[r.hop]
	if l.hasSpace() {
		s.depart(b, now)
		l.advance(r, now)
		l.to.tryDispatch()
		s.tryDispatch()
		return
	}
	// Blocking after service: the bridge is full, so the bus stays
	// occupied holding the finished request. Its visit (and the hop
	// response tally) ends only when admitBlocked pulls it through.
	s.blocked++
	s.blockedTW.Set(float64(s.blocked)/float64(s.nBuses), now)
	s.fab.blocks++
	if p := s.fab.probe; p != nil {
		p.BridgeBlock(now, l.idx, s.idx, b)
	}
	l.waiters = append(l.waiters, blockedEntry{seg: s, b: b, since: now})
}

// ResetStats discards accumulated statistics on every segment and flow
// and restarts collection at the current time, preserving fabric state
// — the warmup-truncation hook. The collectors keep their live values
// (busy-bus fraction, per-bus indicators, current queue depth) and
// restart integration at now, so the state carries across the
// truncation point while its history is dropped.
func (f *Fabric) ResetStats() {
	now := f.eng.Now()
	f.statsStart = now
	for _, s := range f.segs {
		s.wait.Reset()
		s.resp.Reset()
		if s.waitHist != nil {
			s.waitHist.Reset()
			s.respHist.Reset()
		}
		if flow := s.flow; flow != nil {
			flow.resp.Reset()
			if flow.hist != nil {
				flow.hist.Reset()
			}
			flow.done = 0
		}
		s.issued = 0
		s.completions = 0
		for i := range s.grants {
			s.grants[i] = 0
		}
		s.util.ResetAt(now)
		s.blockedTW.ResetAt(now)
		for b := range s.busUtil {
			s.busUtil[b].ResetAt(now)
		}
		s.qlen.ResetAt(now)
	}
}

// SegmentMetrics summarizes one segment over the measured interval.
// Utilization is the time-averaged fraction of occupied buses;
// BusUtilization breaks it down per bus, so its mean equals
// Utilization. Blocked is the time-averaged fraction of buses held by
// blocking-after-service (a subset of Utilization: a blocked bus is
// occupied but doing no work). Wait runs from arrival in the claimant
// queue to service start, response to departure from the segment.
type SegmentMetrics struct {
	Name           string    `json:"name"`
	Utilization    float64   `json:"utilization"`
	Blocked        float64   `json:"blocked"`
	BusUtilization []float64 `json:"bus_utilization"`
	Throughput     float64   `json:"throughput"`
	MeanQueueLen   float64   `json:"mean_queue_len"`
	MaxQueueLen    float64   `json:"max_queue_len"`
	MeanWait       float64   `json:"mean_wait"`
	WaitStdDev     float64   `json:"wait_std_dev"`
	MaxWait        float64   `json:"max_wait"`
	MeanResponse   float64   `json:"mean_response"`
	Issued         uint64    `json:"issued"`
	Completions    uint64    `json:"completions"`
	Grants         []uint64  `json:"grants"`
	// WaitHist and RespHist are snapshot copies of the per-hop latency
	// histograms; nil unless Config.Quantiles enabled collection.
	WaitHist *sim.Histogram `json:"-"`
	RespHist *sim.Histogram `json:"-"`
}

// FlowMetrics summarizes the end-to-end (issue → fabric exit) response
// of the flow originating at one station segment.
type FlowMetrics struct {
	Segment        string  `json:"segment"`
	Completed      uint64  `json:"completed"`
	MeanResponse   float64 `json:"mean_response"`
	ResponseStdDev float64 `json:"response_std_dev"`
	MaxResponse    float64 `json:"max_response"`
	// RespHist is a snapshot copy of the end-to-end response histogram;
	// nil unless Config.Quantiles enabled collection.
	RespHist *sim.Histogram `json:"-"`
}

// Metrics is a point-in-time summary of the whole fabric. Segments
// follows Config.Segments order; Flows holds one entry per segment with
// stations, in the same order.
type Metrics struct {
	Elapsed  float64          `json:"elapsed"`
	Segments []SegmentMetrics `json:"segments"`
	Flows    []FlowMetrics    `json:"flows"`
}

// Snapshot computes metrics as of the engine's current time without
// disturbing the collectors, so the simulation can continue afterwards.
func (f *Fabric) Snapshot() Metrics {
	m := Metrics{
		Elapsed:  f.Elapsed(),
		Segments: make([]SegmentMetrics, len(f.segs)),
	}
	for k, s := range f.segs {
		m.Segments[k] = f.SegmentSnapshot(k)
		if s.cfg.Stations == 0 {
			continue
		}
		// Every request a standalone segment serves exits there, so its
		// hop response is its end-to-end response, observation for
		// observation.
		resp, hist, done := &s.resp, s.respHist, s.completions
		if s.flow != nil {
			resp, hist, done = &s.flow.resp, s.flow.hist, s.flow.done
		}
		flow := FlowMetrics{
			Segment:        s.cfg.Name,
			Completed:      done,
			MeanResponse:   resp.Mean(),
			ResponseStdDev: resp.StdDev(),
			MaxResponse:    resp.Max(),
		}
		if hist != nil {
			h := *hist
			flow.RespHist = &h
		}
		m.Flows = append(m.Flows, flow)
	}
	return m
}

// Elapsed returns the length of the measured interval as of the
// engine's current time.
func (f *Fabric) Elapsed() float64 { return f.eng.Now() - f.statsStart }

// SegmentSnapshot computes segment k's metrics as of the engine's
// current time — Snapshot's Segments[k] on its own, without the flows.
func (f *Fabric) SegmentSnapshot(k int) SegmentMetrics {
	s := f.segs[k]
	now := f.eng.Now()
	elapsed := f.Elapsed()
	util := s.util
	util.Finish(now)
	blocked := s.blockedTW
	blocked.Finish(now)
	qlen := s.qlen
	qlen.Finish(now)
	perBus := make([]float64, s.nBuses)
	for b := range perBus {
		bu := s.busUtil[b]
		bu.Finish(now)
		perBus[b] = bu.Average(elapsed)
	}
	var waitHist, respHist *sim.Histogram
	if s.waitHist != nil {
		wh := *s.waitHist
		rh := *s.respHist
		waitHist, respHist = &wh, &rh
	}
	sm := SegmentMetrics{
		Name:           s.cfg.Name,
		Utilization:    util.Average(elapsed),
		Blocked:        blocked.Average(elapsed),
		BusUtilization: perBus,
		MeanQueueLen:   qlen.Average(elapsed),
		MaxQueueLen:    qlen.Max(),
		MeanWait:       s.wait.Mean(),
		WaitStdDev:     s.wait.StdDev(),
		MaxWait:        s.wait.Max(),
		MeanResponse:   s.resp.Mean(),
		Issued:         s.issued,
		Completions:    s.completions,
		Grants:         append([]uint64(nil), s.grants...),
		WaitHist:       waitHist,
		RespHist:       respHist,
	}
	if elapsed > 0 {
		sm.Throughput = float64(s.completions) / elapsed
	}
	return sm
}

// Busy returns the number of segment k's buses currently occupied,
// serving or blocked after service. Exposed for invariant checks in
// tests.
func (f *Fabric) Busy(k int) int { return f.segs[k].busy }

// Outstanding returns the number of requests station i of segment k has
// in flight anywhere in the fabric: queued at its home interface,
// stalled, crossing any bridge on its route, in service, or blocked.
// Exposed for invariant checks in tests.
func (f *Fabric) Outstanding(k, i int) int {
	home := f.segs[k]
	c := home.claimQ[i].len()
	if home.stalled != nil && home.stalled[i].held {
		c++
	}
	for h, hop := range home.path.segs {
		t := f.segs[hop]
		for _, o := range t.onBus {
			// At home, station i's requests are exactly those granted
			// from claimant i; downstream they are told apart by path.
			if h == 0 && o.claimant == i || h > 0 && o.r != nil && o.r.path == home.path && int(o.r.local) == i {
				c++
			}
		}
		if h > 0 {
			l := home.path.links[h-1]
			q := &l.to.claimQ[l.claimant]
			for n := 0; n < q.len(); n++ {
				if r := q.at(n); r.path == home.path && int(r.local) == i {
					c++
				}
			}
		}
	}
	return c
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/topo"
	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/opt"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// layers is the traced run. It checks that the untraced, checkWorkers
// and traced reports agree, replays the workload's DES jobs under spans,
// times each layer's primitives at the sizes the workload produces, and
// reconciles them into the cost ledger.
func layers(w workload, o options, c *checker, out io.Writer) (map[string]float64, []span) {
	m := map[string]float64{}
	in := w.build(o.params)

	ref, err := in.run(o.workers)
	c.attempted += int(ref.jobs)
	if c.fail(err, "untraced run") {
		return m, nil
	}
	c.fail(sane(ref), "untraced result")
	refDigest, err := digest(ref.value)
	c.fail(err, "encoding the untraced result")
	other, err := in.run(checkWorkers)
	c.attempted += int(other.jobs)
	if !c.fail(err, fmt.Sprintf("workers=%d run", checkWorkers)) {
		d, err := digest(other.value)
		c.check(err == nil && d == refDigest, "workers=%d report differs from the untraced run's", checkWorkers)
	}
	m["sweep.ci_pairs"] = float64(ref.ci.pairs)
	m["sweep.ci_misses"] = float64(ref.ci.misses)
	m["sweep.ci_miss_frac"] = ref.ci.frac()

	// The traced pass: plan, every DES job, reduce, encode.
	tr := newTracer()
	root := tr.begin("workload", -1)
	sp := tr.begin("sweep.plan", root)
	jobs, models, err := in.plan()
	tr.end(sp)
	if c.fail(err, "planning") {
		tr.end(root)
		return m, tr.spans
	}
	races, _ := ref.value.([]opt.Outcome)
	if in.problems != nil {
		jobs = raceJobs(races)
	}
	sp = tr.begin("sweep.execute", root)
	outs, err := execute(tr, sp, jobs, o.workers)
	execNs := tr.end(sp)
	c.attempted += len(jobs)
	if c.fail(err, "traced jobs") {
		tr.end(root)
		return m, tr.spans
	}
	final := ref.value
	reduceSpecs := in.reduceSpecs(ref)
	var cache *sweep.Cache
	if in.topos == nil {
		sp = tr.begin("sweep.reduce", root)
		cache, err = fill(jobs, outs)
		var reduced []sweep.Result
		if err == nil {
			reduced, err = reduceAll(reduceSpecs, cache, o.workers)
		}
		tr.end(sp)
		if !c.fail(err, "reducing the traced jobs") && in.problems == nil {
			final = reduced
			d, err := digest(reduced)
			c.check(err == nil && d == refDigest, "traced report differs from the untraced run's")
		}
	}
	sp = tr.begin("encode", root)
	encoded, err := json.Marshal(final)
	tr.end(sp)
	c.fail(err, "encoding the result")
	tr.end(root)

	t0 := time.Now()
	_, err = execute(nil, -1, jobs, o.workers)
	c.fail(err, "untraced jobs")
	m["bench.trace_overhead_frac"] = float64(execNs)/float64(time.Since(t0).Nanoseconds()) - 1

	agg, ops, jobNsPerEvent := jobMetrics(m, outs, execNs, o.workers)

	// The representative point on the other engine, so both job costs
	// are measured on every workload: a flat point lifted to its
	// one-node topology, or a fabric's flat twin.
	var cross []job
	for r := 0; r < o.replications; r++ {
		if in.rep.flat != nil {
			t := in.rep.flat.Topology()
			t.Stream += uint64(r)
			cross = append(cross, job{topo: &t})
		} else {
			cfg := flatTwin(*in.rep.topo)
			cfg.Stream += uint64(r)
			cross = append(cross, job{cfg: &cfg})
		}
	}
	sp = tr.begin("cross-engine", -1)
	crossOuts, err := execute(tr, sp, cross, o.workers)
	tr.end(sp)
	c.attempted += len(cross)
	if c.fail(err, "cross-engine jobs") {
		return m, tr.spans
	}
	_, _, crossNsPerEvent := jobMetrics(nil, crossOuts, 0, o.workers)
	if in.topos != nil {
		m["topo.job_ns_per_event"], m["bus.job_ns_per_event"] = jobNsPerEvent, crossNsPerEvent
		// RunTopology takes no cache, so the fabric workload's reduce is
		// timed on its representative point's flat twin.
		twin := *cross[0].cfg
		twin.Stream = in.rep.topo.Stream
		reduceSpecs = []sweep.Spec{{Points: []busnet.Config{twin}, Replications: o.replications}}
		cache, err = fill(cross, crossOuts)
		c.fail(err, "caching the twin's jobs")
	} else {
		m["bus.job_ns_per_event"], m["topo.job_ns_per_event"] = jobNsPerEvent, crossNsPerEvent
	}

	m["sweep.reduce_ms"] = nsPerOp(func(int) {
		if _, err := reduceAll(reduceSpecs, cache, o.workers); err != nil {
			panic(err) // the same reduction succeeded above
		}
	}) / 1e6
	m["sweep.cache_hit_ratio"] = ratio(cache.Hits(), cache.Hits()+cache.Misses())
	c.check(cache.Misses() == 0, "reduce missed the cache %d times", cache.Misses())
	raceMetrics(m, races)
	m["sweep.plan_ms"] = nsPerOp(func(int) { _, _, _ = in.plan() }) / 1e6
	m["encode.json_ms"] = nsPerOp(func(int) { _, _ = json.Marshal(final) }) / 1e6
	m["encode.kb"] = float64(len(encoded)) / 1e3
	m["analytic.eval_us"], m["fluid.eval_us"] = modelCosts(in, models)
	m["busnet.hash_us"] = hashCost(jobs)

	// Engine primitives at the sizes this workload produces.
	pend, err := samplePending(in.rep, c)
	c.fail(err, "sampling the pending set")
	m["sim.pending_mean"] = pend
	p := primitives(o.seed, max(1, int(math.Round(pend))), stations(in.rep), m["bus.arb_scan_per_grant"])
	m["sim.wheel_pushpop_ns"] = p.wheel
	m["sim.rng_exp_ns"] = p.rng
	m["sim.tally_add_ns"] = p.tally
	m["sim.tw_set_ns"] = p.tw
	m["sim.hist_add_ns"] = p.hist
	m["bus.arb_select_ns"] = p.arb
	m["obs.recorder_overhead_frac"], err = recorderOverhead(in.rep)
	c.fail(err, "recorder overhead")

	m["ledger.residue_frac"] = ledger(out, w.name, in.topos != nil, jobNsPerEvent, agg, ops, p)
	m["bench.failed_frac"] = float64(c.failed) / float64(max(c.attempted, 1))
	return m, tr.spans
}

// jobMetrics sums the jobs' counters and returns them with the job
// cost per fired event. With a non-nil m it also records the per-job
// and per-event metrics of the workload's jobs, which ran for execNs on
// workers workers.
func jobMetrics(m map[string]float64, outs []jobOut, execNs int64, workers int) (busnet.Diagnostics, opCounts, float64) {
	var jobMs []float64
	var busyNs int64
	var agg busnet.Diagnostics
	var ops opCounts
	for _, jo := range outs {
		jobMs = append(jobMs, float64(jo.ns)/1e6)
		busyNs += jo.ns
		agg.Accumulate(jo.diag)
		ops.add(jo.ops)
	}
	fired := float64(agg.Engine.Fired)
	if m == nil {
		return agg, ops, float64(busyNs) / fired
	}
	m["busnet.job_ms_p50"] = median(jobMs)
	m["busnet.job_ms_p95"] = quantile(jobMs, 0.95)
	m["busnet.job_samples"] = float64(len(jobMs))
	m["sweep.worker_busy_frac"] = float64(busyNs) / (float64(execNs) * float64(workers))
	perKev := func(n uint64) float64 { return 1000 * float64(n) / fired }
	m["sim.wheel_overflow_per_kev"] = perKev(agg.Engine.WheelOverflow)
	m["sim.wheel_rebases_per_kev"] = perKev(agg.Engine.WheelRebases)
	m["sim.wheel_resizes"] = float64(agg.Engine.WheelResizes)
	m["sim.pool_hit_ratio"] = ratio(agg.Engine.PoolHits, agg.Engine.PoolHits+agg.Engine.PoolMisses)
	// Grants are counted over the measured interval, scan slots over
	// the whole run; scale grants up by fired/events to match.
	runGrants := float64(ops.grants) * fired / float64(ops.events)
	m["bus.arb_scan_per_grant"] = float64(agg.ArbScanSlots) / runGrants
	m["bus.stalls_per_kev"] = perKev(agg.Stalls)
	m["topo.crossings_per_kev"] = perKev(agg.BridgeCrossings)
	m["topo.bridge_block_ratio"] = ratio(agg.BridgeBlocks, agg.BridgeCrossings)
	return agg, ops, float64(busyNs) / fired
}

// raceMetrics records the races' job ledger; all zero outside the race.
func raceMetrics(m map[string]float64, races []opt.Outcome) {
	var desJobs, hits, exhaustive uint64
	m["opt.final_reps"], m["opt.pruned"] = 0, 0
	for _, race := range races {
		desJobs += race.DESJobs
		hits += race.CacheHits
		exhaustive += race.ExhaustiveJobs
		m["opt.final_reps"] = max(m["opt.final_reps"], float64(race.FinalReplications))
		for _, e := range race.Ranked {
			if e.Status == opt.StatusPruned {
				m["opt.pruned"]++
			}
		}
	}
	m["opt.des_jobs"] = float64(desJobs)
	m["opt.exhaustive_ratio"] = ratio(desJobs, exhaustive)
	if len(races) > 0 {
		// The race's own cache, not the reduce's pre-filled one.
		m["sweep.cache_hit_ratio"] = ratio(hits, hits+desJobs)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (o *opCounts) add(x opCounts) {
	o.events += x.events
	o.issued += x.issued
	o.grants += x.grants
	o.completions += x.completions
	o.exits += x.exits
	o.quantiles = o.quantiles || x.quantiles
}

// reduceAll runs sweep.Run over specs with the cache attached.
func reduceAll(specs []sweep.Spec, cache *sweep.Cache, workers int) ([]sweep.Result, error) {
	var out []sweep.Result
	for _, spec := range specs {
		spec.Cache, spec.Workers = cache, workers
		res, err := sweep.Run(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// sink keeps timed calls from being optimized away.
var sink float64

// nsPerOp times op in batches grown until one lasts at least 5 ms, then
// returns the median nanoseconds per call over five such batches.
func nsPerOp(op func(i int)) float64 {
	i, n := 0, 1
	batch := func() time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			op(i)
			i++
		}
		return time.Since(t0)
	}
	for batch() < 5*time.Millisecond && n < 1<<30 {
		n *= 2
	}
	samples := make([]float64, 5)
	for s := range samples {
		samples[s] = float64(batch().Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// modelCosts times one analytic and one fluid evaluation per point, in
// microseconds. Fabric points take the analytic product form on the
// topology itself and the fluid model on their flat twins, since fluid
// has no topology model.
func modelCosts(in input, models []busnet.Config) (analyticUs, fluidUs float64) {
	if in.topos != nil {
		var pts []busnet.Topology
		for _, spec := range in.topos {
			pts = append(pts, spec.Points...)
		}
		analyticUs = nsPerOp(func(i int) {
			ev, _ := busnet.EvaluateTopology(pts[i%len(pts)], busnet.BackendAnalytic)
			sink += ev.Throughput
		}) / 1e3
	} else {
		analyticUs = nsPerOp(func(i int) {
			ev, _ := busnet.Evaluate(models[i%len(models)], busnet.BackendAnalytic)
			sink += ev.Throughput
		}) / 1e3
	}
	fluidUs = nsPerOp(func(i int) {
		ev, _ := busnet.Evaluate(models[i%len(models)], busnet.BackendFluid)
		sink += ev.Throughput
	}) / 1e3
	return analyticUs, fluidUs
}

// hashCost times the cache key of one job in microseconds: sweep.KeyFor
// for flat configs, busnet.CanonicalHash for topologies.
func hashCost(jobs []job) float64 {
	return nsPerOp(func(i int) {
		j := jobs[i%len(jobs)]
		if j.cfg != nil {
			k, _ := sweep.KeyFor(*j.cfg)
			sink += float64(len(k.ConfigHash))
			return
		}
		h, _ := busnet.CanonicalHash(*j.topo)
		sink += float64(len(h))
	}) / 1e3
}

// stations is the arbitration width of the representative point.
func stations(rp repPoint) int {
	if rp.flat != nil {
		return rp.flat.Processors
	}
	return flatTwin(*rp.topo).Processors
}

// samplePending runs the representative point on its own engine built
// from the same parameters, sampling Engine.Pending() between RunUntil
// slices after warm-up. The run must fire exactly the events busnet's
// run of the point fires, which shows the sampled engine is the one the
// workload runs.
func samplePending(rp repPoint, c *checker) (float64, error) {
	eng := sim.NewEngine()
	var horizon, warmup float64
	var want busnet.Diagnostics
	if rp.flat != nil {
		cfg := rp.flat.Normalized()
		mode := bus.Unbuffered
		if cfg.Mode == busnet.ModeBuffered {
			mode = bus.Buffered
		}
		n, err := bus.New(bus.Config{
			Processors: cfg.Processors, ThinkRate: cfg.ThinkRate, ServiceRate: cfg.ServiceRate,
			Mode: mode, BufferCap: cfg.BufferCap, Arbiter: bus.NewRoundRobin(), Buses: cfg.Buses,
			Quantiles: cfg.Quantiles,
		}, eng, sim.NewRNGStream(cfg.Seed, cfg.Stream))
		if err != nil {
			return 0, err
		}
		n.Start()
		horizon, warmup = cfg.Horizon, cfg.Warmup
		ev, err := busnet.Evaluate(cfg, busnet.BackendSim)
		if err != nil {
			return 0, err
		}
		want = *ev.Diagnostics
	} else {
		t := rp.topo.Normalized()
		f, err := topo.New(lowerTopology(t), eng, sim.NewRNGStream(t.Seed, t.Stream))
		if err != nil {
			return 0, err
		}
		f.Start()
		horizon, warmup = t.Horizon, t.Warmup
		ev, err := busnet.EvaluateTopology(t, busnet.BackendSim)
		if err != nil {
			return 0, err
		}
		want = *ev.Diagnostics
	}
	const slices = 2000
	var sum float64
	var samples int
	for k := 1; k <= slices; k++ {
		t := horizon * float64(k) / slices
		if err := eng.RunUntil(t); err != nil {
			return 0, err
		}
		if t > warmup {
			sum += float64(eng.Pending())
			samples++
		}
	}
	got := eng.Counters().Fired
	c.check(got == want.Engine.Fired, "sampled engine fired %d events, busnet's run of the same point %d", got, want.Engine.Fired)
	return sum / float64(samples), nil
}

// lowerTopology builds the engine-level fabric config for a topology of
// Poisson/exponential round-robin nodes, as busnet does.
func lowerTopology(t busnet.Topology) topo.Config {
	idx := map[string]int{}
	for i, n := range t.Nodes {
		idx[n.Name] = i
	}
	tc := topo.Config{Quantiles: t.Quantiles}
	for _, n := range t.Nodes {
		sc := topo.SegmentConfig{
			Name: n.Name, Buses: n.Buses, ServiceRate: n.ServiceRate,
			Stations: n.Processors, ThinkRate: n.ThinkRate, BufferCap: n.BufferCap,
		}
		if n.Mode == busnet.ModeBuffered {
			sc.Mode = bus.Buffered
		}
		for _, r := range n.Route {
			sc.Route = append(sc.Route, idx[r])
		}
		tc.Segments = append(tc.Segments, sc)
	}
	for _, l := range t.Links {
		tc.Links = append(tc.Links, topo.LinkConfig{From: idx[l.From], To: idx[l.To], Depth: l.Buffer})
	}
	return tc
}

// primitiveCosts are nanoseconds per call of the engine's per-event
// primitives.
type primitiveCosts struct{ wheel, rng, tally, tw, hist, arb float64 }

// primitives times each engine primitive standalone: the timing wheel
// holding pending events (the classic hold model: pop the earliest,
// push it back one exponential delay later), one RNG.Exp draw, the
// statistics collectors, and round-robin arbitration over width
// stations with a pending pattern whose density gives the measured
// scan length per grant.
func primitives(seed int64, pending, width int, scanPerGrant float64) primitiveCosts {
	rng := sim.NewRNGStream(seed, 1)
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.Exp(1 / float64(pending))
	}
	d := func(i int) float64 { return delays[i&(len(delays)-1)] }
	var p primitiveCosts

	w := sim.NewTimingWheel()
	evs := make([]sim.Event, pending)
	for i := range evs {
		evs[i].Time = d(i)
		w.Push(&evs[i])
	}
	p.wheel = nsPerOp(func(i int) {
		e := w.PopLE(math.Inf(1))
		e.Time += d(i)
		w.Push(e)
	})

	r := sim.NewRNGStream(seed, 2)
	p.rng = nsPerOp(func(int) { sink += r.Exp(1) })
	var t sim.Tally
	p.tally = nsPerOp(func(i int) { t.Add(d(i)) })
	var tw sim.TimeWeighted
	now := 0.0
	p.tw = nsPerOp(func(i int) {
		now += d(i)
		tw.Set(float64(i&15), now)
	})
	var h sim.Histogram
	p.hist = nsPerOp(func(i int) { h.Add(d(i)) })
	sink += t.Mean() + tw.Value() + float64(h.Count())

	density := 1.0
	if scanPerGrant > 1 {
		density = max(1/scanPerGrant, 1/float64(width))
	}
	pendingSet := make([]bool, width)
	pendingSet[0] = true
	for i := range pendingSet {
		pendingSet[i] = pendingSet[i] || r.Uniform() < density
	}
	a := bus.NewRoundRobin()
	p.arb = nsPerOp(func(int) { sink += float64(a.Select(pendingSet)) })
	return p
}

// recorderOverhead compares the representative point's run with a
// flight recorder attached against the plain run, as the median ratio
// of five alternating pairs, minus one.
func recorderOverhead(rp repPoint) (float64, error) {
	run := func(rec *busnet.FlightRecorder) (time.Duration, error) {
		t0 := time.Now()
		var err error
		if rp.flat != nil {
			_, err = busnet.EvaluateTraced(*rp.flat, busnet.BackendSim, rec)
		} else {
			_, err = busnet.EvaluateTopologyTraced(*rp.topo, busnet.BackendSim, rec)
		}
		return time.Since(t0), err
	}
	var ratios []float64
	for k := 0; k < 5; k++ {
		plain, err := run(nil)
		if err != nil {
			return 0, err
		}
		traced, err := run(busnet.NewFlightRecorder(4096))
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, float64(traced)/float64(plain))
	}
	return median(ratios) - 1, nil
}

// ledger prints the workload's cost ledger: each per-event primitive's
// standalone cost times how often an event pays it, summed and set
// against the measured job cost per fired event. It returns the share
// of the job cost the primitives leave unexplained.
//
// Per-event counts come from the jobs' own counters. Every scheduled
// event is pushed and popped once. Each issue was preceded by one
// exponential think draw and each grant draws one service time. Each
// grant adds to the wait tally and each hop completion to the response
// tally (a fabric exit also to its flow's tally). Time-weighted updates
// are one queue-length change per enqueue (issues and bridge
// crossings), three per grant (queue, utilization, per-bus) and two per
// completion; fabric blocks add two. With quantiles on, each tally add
// is mirrored by a histogram add.
func ledger(out io.Writer, name string, fabric bool, jobNs float64, d busnet.Diagnostics, ops opCounts, p primitiveCosts) float64 {
	ev := float64(ops.events)
	fired := float64(d.Engine.Fired)
	// Bridge counters cover the whole run; scale to the measured interval.
	whole := ev / fired
	tallies := float64(ops.grants + ops.completions + ops.exits)
	rows := []struct {
		name     string
		ns, rate float64
	}{
		{"sim wheel push+pop", p.wheel, float64(d.Engine.Scheduled) / fired},
		{"sim rng exp", p.rng, float64(ops.issued+ops.grants) / ev},
		{"sim tally add", p.tally, tallies / ev},
		{"sim time-weighted set", p.tw, (float64(ops.issued+3*ops.grants+2*ops.completions) +
			whole*float64(d.BridgeCrossings+2*d.BridgeBlocks)) / ev},
		{"bus arbiter select", p.arb, float64(ops.grants) / ev},
	}
	if ops.quantiles {
		rows = append(rows, struct {
			name     string
			ns, rate float64
		}{"sim histogram add", p.hist, tallies / ev})
	}
	kind := "bus"
	if fabric {
		kind = "topo"
	}
	fmt.Fprintf(out, "  ledger %s: %s jobs, %.0f events fired\n", name, kind, fired)
	fmt.Fprintf(out, "    %-24s %10s %12s %12s\n", "component", "ns/op", "ops/event", "ns/event")
	var sum float64
	for _, r := range rows {
		sum += r.ns * r.rate
		fmt.Fprintf(out, "    %-24s %10.2f %12.3f %12.2f\n", r.name, r.ns, r.rate, r.ns*r.rate)
	}
	residue := 1 - sum/jobNs
	fmt.Fprintf(out, "    %-24s %10s %12s %12.2f\n", "sum of components", "", "", sum)
	fmt.Fprintf(out, "    %-24s %10s %12s %12.2f\n", kind+".job_ns_per_event", "", "", jobNs)
	fmt.Fprintf(out, "    %-24s %10s %12s %12.4f\n", "ledger.residue_frac", "", "", residue)
	return residue
}

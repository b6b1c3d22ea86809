package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/opt"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so the same code runs traced and not.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// nested reports the first span that is still open or does not lie
// inside its parent.
func nested(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) is not closed", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d, %d] lies outside its parent %s [%d, %d]",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// job is one DES (point, replication) evaluation: exactly one of cfg
// and topo is set, with Stream already offset by the replication.
type job struct {
	cfg  *busnet.Config
	topo *busnet.Topology
}

// jobOut is what one job produced, with the counts the ledger needs.
type jobOut struct {
	res  *busnet.Results // flat jobs only: cached for the reduce stage
	ns   int64           // wall time of the Evaluate call
	diag busnet.Diagnostics
	ops  opCounts
}

// opCounts are a job's operation counts over its measured (post-warmup)
// interval, from which per-event rates are formed. exits counts
// requests leaving a fabric; flat jobs have no flow tally and leave it 0.
type opCounts struct {
	events, issued, grants, completions, exits uint64
	quantiles                                  bool
}

// evaluate runs one job through busnet.Evaluate or busnet.EvaluateTopology.
func evaluate(j job) (jobOut, error) {
	var out jobOut
	t0 := time.Now()
	if j.cfg != nil {
		ev, err := busnet.Evaluate(*j.cfg, busnet.BackendSim)
		out.ns = time.Since(t0).Nanoseconds()
		if err != nil {
			return out, err
		}
		r := ev.Results
		out.res, out.diag = r, *r.Diagnostics
		out.ops = opCounts{events: r.Events, issued: r.Issued, completions: r.Completions, quantiles: j.cfg.Quantiles}
		for _, g := range r.Grants {
			out.ops.grants += g
		}
		return out, nil
	}
	ev, err := busnet.EvaluateTopology(*j.topo, busnet.BackendSim)
	out.ns = time.Since(t0).Nanoseconds()
	if err != nil {
		return out, err
	}
	r := ev.Results
	out.diag = *r.Diagnostics
	out.ops = opCounts{events: r.Events, quantiles: j.topo.Quantiles}
	for _, h := range r.Hops {
		out.ops.issued += h.Issued
		out.ops.completions += h.Completions
		for _, g := range h.Grants {
			out.ops.grants += g
		}
	}
	for _, f := range r.Flows {
		out.ops.exits += f.Completed
	}
	return out, nil
}

// execute runs jobs over a pool of workers, each job under its own
// "busnet.job" span below parent. It returns the first error in job order.
func execute(tr *tracer, parent int, jobs []job, workers int) ([]jobOut, error) {
	outs := make([]jobOut, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				id := tr.begin("busnet.job", parent)
				outs[i], errs[i] = evaluate(jobs[i])
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	return outs, nil
}

// plan is the work before the first DES job starts: planning,
// validation and enumeration, and for the race the model prune. It
// returns the sweep jobs (none for the race, whose jobs depend on how
// it runs) and the configs whose model evaluations the workload pays.
func (in input) plan() (jobs []job, models []busnet.Config, err error) {
	switch {
	case in.problems != nil:
		for _, p := range in.problems {
			cands, err := p.Enumerate()
			if err != nil {
				return nil, nil, err
			}
			for _, c := range cands {
				if c.OverBudget {
					continue
				}
				models = append(models, c.Config)
				// The race scores each candidate with the first model
				// that accepts it: analytic, else fluid.
				if _, err := busnet.Evaluate(c.Config, busnet.BackendAnalytic); err != nil {
					_, _ = busnet.Evaluate(c.Config, busnet.BackendFluid)
				}
			}
		}
	case in.topos != nil:
		for _, spec := range in.topos {
			for _, t := range spec.Points {
				if err := t.Validate(); err != nil {
					return nil, nil, err
				}
				models = append(models, flatTwin(t))
				for r := 0; r < spec.Replications; r++ {
					t := t
					t.Stream += uint64(r)
					jobs = append(jobs, job{topo: &t})
				}
			}
		}
	default:
		for _, spec := range in.specs {
			js, err := sweep.Jobs(spec)
			if err != nil {
				return nil, nil, err
			}
			for _, j := range js {
				cfg := j.Config
				jobs = append(jobs, job{cfg: &cfg})
				if j.Rep == 0 {
					models = append(models, cfg)
				}
			}
		}
	}
	return jobs, models, nil
}

// raceJobs lists the DES jobs finished races executed: every raced
// candidate at each replication it reached, on substreams base+0 … r−1.
func raceJobs(outs []opt.Outcome) []job {
	var jobs []job
	for _, out := range outs {
		for _, e := range out.Ranked {
			for r := 0; r < e.Replications; r++ {
				cfg := e.Config
				cfg.Stream += uint64(r)
				jobs = append(jobs, job{cfg: &cfg})
			}
		}
	}
	return jobs
}

// flatTwin is the flat configuration of a topology's first
// processor-bearing node: the same stations, rates, interface and
// horizon on one bus segment with no bridges.
func flatTwin(t busnet.Topology) busnet.Config {
	cfg := busnet.DefaultConfig()
	for _, n := range t.Nodes {
		if n.Processors == 0 {
			continue
		}
		cfg.Processors, cfg.ThinkRate, cfg.ServiceRate = n.Processors, n.ThinkRate, n.ServiceRate
		cfg.Mode, cfg.BufferCap, cfg.Buses = n.Mode, n.BufferCap, n.Buses
		break
	}
	cfg.Seed, cfg.Stream, cfg.Horizon, cfg.Warmup = t.Seed, t.Stream, t.Horizon, t.Warmup
	cfg.Quantiles = t.Quantiles
	return cfg
}

// fill stores every flat job's result in a sweep cache under its key,
// so sweep.Run over the same points only reduces.
func fill(jobs []job, outs []jobOut) (*sweep.Cache, error) {
	cache := sweep.NewCache()
	for i, o := range outs {
		if o.res == nil {
			continue
		}
		k, err := sweep.KeyFor(*jobs[i].cfg)
		if err != nil {
			return nil, err
		}
		cache.Put(k, *o.res)
	}
	return cache, nil
}

// reduceSpecs are the sweeps that reduce a workload's flat jobs: its own
// specs, or for the races one explicit point list per replication level
// they reached.
func (in input) reduceSpecs(ref result) []sweep.Spec {
	if in.problems == nil {
		return in.specs
	}
	byReps := map[int][]busnet.Config{}
	var levels []int
	for _, out := range ref.value.([]opt.Outcome) {
		for _, e := range out.Ranked {
			if e.Replications == 0 {
				continue
			}
			if byReps[e.Replications] == nil {
				levels = append(levels, e.Replications)
			}
			byReps[e.Replications] = append(byReps[e.Replications], e.Config)
		}
	}
	var specs []sweep.Spec
	for _, r := range levels {
		specs = append(specs, sweep.Spec{Points: byReps[r], Replications: r})
	}
	return specs
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/opt"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// workload is one benchmark scenario. Its inputs mirror a busnet-sim
// registry entry, so a figure here can be checked against the CLI at
// the same seed, horizon and replication count.
type workload struct {
	name string
	// build returns the workload's inputs for one seed; it is also the
	// first step of the timed set-up.
	build func(p params) input
}

// params are the knobs a workload's inputs are built from.
type params struct {
	seed         int64
	horizon      float64
	replications int
}

// base is busnet-sim's shared starting configuration.
func (p params) base() busnet.Config {
	cfg := busnet.DefaultConfig().AtHorizon(p.horizon)
	cfg.Seed = p.seed
	cfg.ServiceRate = 1
	return cfg
}

// input holds exactly one of specs, topos and problems, plus the point
// whose pending-set size and cross-engine cost stand for the workload.
type input struct {
	specs    []sweep.Spec
	topos    []sweep.TopologySpec
	problems []opt.Problem
	rep      repPoint
}

// raceSeeds is how many seeds one optimize-race pass solves the problem
// at. How many jobs a race runs depends on how its intervals overlap,
// which changes with the seed; summing several races keeps the work of
// a pass nearly the same from one --seed to the next.
const raceSeeds = 4

// repPoint is a workload's representative operating point: a flat
// config or a topology.
type repPoint struct {
	flat *busnet.Config
	topo *busnet.Topology
}

var workloads = []workload{
	{
		// The paper's three curves on the flat engine: almost all time is
		// sim and bus at pending sets of 3-70.
		name: "paper-flat",
		build: func(p params) input {
			unbuf := p.base()
			unbuf.Mode = busnet.ModeUnbuffered
			unbuf.ThinkRate = 0.1
			load := p.base()
			load.Mode = busnet.ModeBuffered
			load.BufferCap = busnet.Infinite
			load.Processors = 16
			var rates []float64
			for i := 1; i <= 9; i++ {
				rates = append(rates, float64(i)/10/16)
			}
			finite := p.base()
			finite.Mode = busnet.ModeBuffered
			finite.Processors = 16
			finite.ThinkRate = 0.05
			rep := finite
			rep.BufferCap = 4
			return input{
				specs: []sweep.Spec{
					{Grid: sweep.Grid{Base: unbuf, Processors: []int{2, 4, 8, 12, 16, 24, 32, 48, 64}}, Replications: p.replications},
					{Grid: sweep.Grid{Base: load, ThinkRates: rates}, Replications: p.replications},
					{Grid: sweep.Grid{Base: finite, BufferCaps: []int{1, 2, 3, 4, 6, 8, 12, 16, busnet.Infinite}}, Replications: p.replications},
				},
				rep: repPoint{flat: &rep},
			}
		},
	},
	{
		// The topology-curves points: all DES time is topo (request pool,
		// bridges, blocking) and none is flat bus.
		name: "fabric-tandem",
		build: func(p params) input {
			const n, lambda = 16, 0.04
			var depth, chain, merge []busnet.Topology
			for _, d := range []int{1, 2, 4, 8, 16, 32} {
				depth = append(depth, mustBuild(busnet.NewTopology().
					BufferedSourceNode("cpu", n, lambda, 1, busnet.Infinite, "mem").
					TransitNode("mem", 1).
					Bridge("cpu", "mem", d).
					Seed(p.seed).Horizon(p.horizon)))
			}
			for _, l := range []float64{0.02, 0.03, 0.04} {
				chain = append(chain, mustBuild(busnet.NewTopology().
					BufferedSourceNode("cpu", n, l, 1, busnet.Infinite, "l2", "mem").
					TransitNode("l2", 0.9).
					TransitNode("mem", 0.8).
					Bridge("cpu", "l2", busnet.Infinite).
					Bridge("l2", "mem", busnet.Infinite).
					Seed(p.seed).Horizon(p.horizon)))
			}
			for _, d := range []int{1, busnet.Infinite} {
				merge = append(merge, mustBuild(busnet.NewTopology().
					BufferedSourceNode("cpuA", n/2, lambda, 1, busnet.Infinite, "backbone", "mem").
					BufferedSourceNode("cpuB", n/2, lambda, 1, busnet.Infinite, "backbone", "mem").
					TransitNode("backbone", 1).
					TransitNode("mem", 1).
					Bridge("cpuA", "backbone", busnet.Infinite).
					Bridge("cpuB", "backbone", busnet.Infinite).
					Bridge("backbone", "mem", d).
					Seed(p.seed).Horizon(p.horizon)))
			}
			rep := depth[2]
			return input{
				topos: []sweep.TopologySpec{
					{Points: depth, Replications: p.replications},
					{Points: chain, Replications: p.replications},
					{Points: merge, Replications: p.replications},
				},
				rep: repPoint{topo: &rep},
			}
		},
	},
	{
		// The optimize problem via opt.Solve: explicit point lists,
		// repeated rounds through sweep.Cache, a model prune.
		name: "optimize-race",
		build: func(p params) input {
			var problems []opt.Problem
			for k := range int64(raceSeeds) {
				base := p.base()
				base.Seed = p.seed*raceSeeds + k
				base.Processors = 16
				base.ThinkRate = 0.05
				problems = append(problems, opt.Problem{
					Space:     opt.Space{Base: base, Buses: []int{1, 2}, BufferDepths: []int{1, 2, 4}},
					Objective: opt.Objective{Goal: opt.MaxThroughput},
					Budget:    opt.Budget{Total: 96, BufferCost: 1, BusCost: 32},
					Race: opt.Race{
						InitialReplications: p.replications,
						MaxReplications:     4 * p.replications,
					},
				})
			}
			rep := problems[0].Space.Base
			rep.Mode = busnet.ModeBuffered
			rep.BufferCap = 1
			rep.Buses = 2
			return input{problems: problems, rep: repPoint{flat: &rep}}
		},
	},
	{
		// The fluid-vs-des DES points, N up to 1024, quantiles on: larger
		// pending sets, and a Histogram.Add per grant and completion.
		name: "large-n",
		build: func(p params) input {
			base := p.base()
			base.Mode = busnet.ModeUnbuffered
			base.ThinkRate = 0.1
			base.Buses = 4
			base.Quantiles = true
			rep := base
			rep.Processors = 256
			return input{
				specs: []sweep.Spec{{Grid: sweep.Grid{Base: base, Processors: []int{64, 256, 1024}}, Replications: p.replications}},
				rep:   repPoint{flat: &rep},
			}
		},
	},
}

// mustBuild unwraps a topology declared in this file; a failure is a
// bug here, not input.
func mustBuild(b *busnet.TopologyBuilder) busnet.Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is one complete pass over a workload through its public entry
// point.
type result struct {
	// value is the workload's complete result, as the CLI would encode it.
	value  any
	events uint64 // Σ Diagnostics.Engine.Fired (not known for the race)
	jobs   uint64 // DES (point, replication) jobs executed
	ci     ciCount
}

// ciCount counts (point, metric) pairs that carry a closed-form
// overlay, and those whose overlay lies outside the simulated 95% CI.
type ciCount struct{ pairs, misses int }

func (c *ciCount) add(overlay float64, s sweep.Stat) {
	if s.CIUndefined {
		return
	}
	c.pairs++
	if overlay < s.Lo || overlay > s.Hi {
		c.misses++
	}
}

func (c ciCount) frac() float64 {
	if c.pairs == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.pairs)
}

// run executes the workload once with the given worker count through
// sweep.RunStream, sweep.RunTopologyStream or opt.Solve.
func (in input) run(workers int) (result, error) {
	var r result
	switch {
	case in.problems != nil:
		var all []opt.Outcome
		for _, p := range in.problems {
			p.Race.Workers = workers
			out, err := opt.Solve(p)
			if err != nil {
				return r, err
			}
			all = append(all, out)
			r.jobs += out.DESJobs
			for _, e := range out.Ranked {
				if e.ModelEstimate != nil && e.Replications > 0 {
					r.ci.add(*e.ModelEstimate, e.Score)
				}
			}
		}
		r.value = all
	case in.topos != nil:
		var all []sweep.TopologyResult
		for _, spec := range in.topos {
			spec.Workers = workers
			res := sweep.TopologyResult{Replications: spec.Replications}
			err := sweep.RunTopologyStream(spec, func(d sweep.TopologyPointDelivery) {
				for len(res.Points) <= d.Index {
					res.Points = append(res.Points, sweep.TopologyPointResult{})
				}
				res.Points[d.Index] = d.Point
				r.jobs += uint64(spec.Replications)
				if d.Point.Diagnostics != nil {
					r.events += d.Point.Diagnostics.Engine.Fired
				}
				if a := d.Point.Analytic; a != nil {
					for k, h := range d.Point.Hops {
						if k < len(a.Nodes) && a.Nodes[k].Node == h.Node {
							r.ci.add(a.Nodes[k].Utilization, h.Utilization)
							r.ci.add(a.Nodes[k].MeanWait, h.MeanWait)
						}
					}
				}
			})
			if err != nil {
				return r, err
			}
			all = append(all, res)
		}
		r.value = all
	default:
		var all []sweep.Result
		for _, spec := range in.specs {
			spec.Workers = workers
			res := sweep.Result{Replications: spec.Replications}
			err := sweep.RunStream(spec, func(d sweep.PointDelivery) {
				for len(res.Points) <= d.Index {
					res.Points = append(res.Points, sweep.PointResult{})
				}
				res.Points[d.Index] = d.Point
				r.jobs += uint64(spec.Replications)
				if d.Point.Diagnostics != nil {
					r.events += d.Point.Diagnostics.Engine.Fired
				}
				if a := d.Point.Analytic; a != nil {
					r.ci.add(a.Utilization, d.Point.Utilization)
					r.ci.add(a.MeanWait, d.Point.MeanWait)
				}
			})
			if err != nil {
				return r, err
			}
			all = append(all, res)
		}
		r.value = all
	}
	return r, nil
}

// digest is the SHA-256 of the result's JSON encoding: equal digests
// mean byte-identical reports.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// sane checks invariants every correct result satisfies, whatever the
// seed: each simulated point fired events and reports a utilization in
// [0, 1] and a positive throughput, and the race crowned a winner
// within its job budget.
func sane(r result) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch v := r.value.(type) {
	case []opt.Outcome:
		for i, o := range v {
			if len(o.Ranked) == 0 || o.Ranked[0].Status != opt.StatusWinner {
				return fmt.Errorf("race %d crowned no winner", i)
			}
			if o.DESJobs == 0 || o.DESJobs > o.ExhaustiveJobs {
				return fmt.Errorf("race %d ran %d DES jobs, exhaustive budget %d", i, o.DESJobs, o.ExhaustiveJobs)
			}
		}
	case []sweep.TopologyResult:
		for _, res := range v {
			for i, pt := range res.Points {
				if pt.Diagnostics == nil || pt.Diagnostics.Engine.Fired == 0 {
					return fmt.Errorf("topology point %d fired no events", i)
				}
				if !(pt.Throughput.Mean > 0) || !finite(pt.EndToEnd.Mean) {
					return fmt.Errorf("topology point %d: throughput %v, end-to-end %v", i, pt.Throughput.Mean, pt.EndToEnd.Mean)
				}
				for _, h := range pt.Hops {
					if h.Utilization.Mean < 0 || h.Utilization.Mean > 1 {
						return fmt.Errorf("topology point %d hop %s: utilization %v", i, h.Node, h.Utilization.Mean)
					}
				}
			}
		}
	case []sweep.Result:
		for _, res := range v {
			for i, pt := range res.Points {
				if pt.Diagnostics == nil || pt.Diagnostics.Engine.Fired == 0 {
					return fmt.Errorf("point %d fired no events", i)
				}
				if u := pt.Utilization.Mean; u < 0 || u > 1 || !(pt.Throughput.Mean > 0) || !finite(pt.MeanWait.Mean) {
					return fmt.Errorf("point %d: utilization %v, throughput %v, wait %v", i, u, pt.Throughput.Mean, pt.MeanWait.Mean)
				}
			}
		}
	}
	return nil
}

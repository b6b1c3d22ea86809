// Command perfbench is busnet's benchmark. It runs one workload from
// outside the program, through the public entry points sweep.RunStream,
// sweep.RunTopologyStream, opt.Solve and busnet.Evaluate, checks the
// outputs, and prints a metrics table followed by one JSON result line.
//
//	bash perfbench/run.sh --workload paper-flat --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer metrics and the cost ledger.
// --workload all runs every workload in one process. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of busnet sees, measured with tracing
// off. failed_frac, ci_miss_frac and des_jobs are printed in the table
// but kept out of this list: they are 0 or depend on the seed, so no
// bound on them can hold across seeds.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"ns_per_event", "ns"},
	{"events_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the traced run's metrics of single layers.
var perLayer = []metric{
	{"sim.pending_mean", "count"},
	{"sim.wheel_pushpop_ns", "ns"},
	{"sim.wheel_overflow_per_kev", "1/kev"},
	{"sim.wheel_rebases_per_kev", "1/kev"},
	{"sim.wheel_resizes", "count"},
	{"sim.pool_hit_ratio", "ratio"},
	{"sim.rng_exp_ns", "ns"},
	{"sim.tally_add_ns", "ns"},
	{"sim.tw_set_ns", "ns"},
	{"sim.hist_add_ns", "ns"},
	{"bus.job_ns_per_event", "ns"},
	{"bus.arb_select_ns", "ns"},
	{"bus.arb_scan_per_grant", "ratio"},
	{"bus.stalls_per_kev", "1/kev"},
	{"topo.job_ns_per_event", "ns"},
	{"topo.crossings_per_kev", "1/kev"},
	{"topo.bridge_block_ratio", "ratio"},
	{"busnet.job_ms_p50", "ms"},
	{"busnet.job_ms_p95", "ms"},
	{"busnet.job_samples", "count"},
	{"busnet.hash_us", "us"},
	{"analytic.eval_us", "us"},
	{"fluid.eval_us", "us"},
	{"sweep.plan_ms", "ms"},
	{"sweep.reduce_ms", "ms"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"sweep.worker_busy_frac", "ratio"},
	{"sweep.ci_pairs", "count"},
	{"sweep.ci_misses", "count"},
	{"sweep.ci_miss_frac", "ratio"},
	{"opt.des_jobs", "count"},
	{"opt.exhaustive_ratio", "ratio"},
	{"opt.final_reps", "count"},
	{"opt.pruned", "count"},
	{"obs.recorder_overhead_frac", "ratio"},
	{"encode.json_ms", "ms"},
	{"encode.kb", "kB"},
	{"ledger.residue_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.failed_frac", "ratio"},
}

// Run settings. Horizon and replications are busnet-sim's defaults, so
// results compare with the CLI at the same seed.
const (
	defaultHorizon      = 1e5
	defaultReplications = 10
	// timedWorkers is the sweep and race pool of the timed passes.
	// One worker leaves the benchmark host's second CPU to the Go
	// runtime and to other tenants of the machine, so a pass's wall time
	// does not double when something else takes a CPU, and figures stay
	// comparable across hosts with more CPUs.
	timedWorkers = 1
	// checkWorkers is the pool for untimed work: the race replay, and
	// the traced run's check that another pool size gives the same
	// report.
	checkWorkers = 2
)

// options are one invocation's settings.
type options struct {
	params
	seconds float64
	trace   bool
	workers int
}

// output is the JSON line the benchmark ends with.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker counts attempted operations (DES jobs and correctness checks)
// and the failed ones, printing each failure.
type checker struct {
	w                 io.Writer
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.w, "FAIL: "+format+"\n", args...)
	}
}

// fail records a failed check for a non-nil error.
func (c *checker) fail(err error, what string) bool {
	c.check(err == nil, "%s: %v", what, err)
	return err != nil
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 25, "how long the end-to-end loop measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics and ledger")
	selfcheck := flag.Bool("selfcheck", false, "run every workload at a tiny horizon and check the metric set and spans")
	flag.Parse()

	if *selfcheck {
		if err := selfCheck(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("selfcheck ok")
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "--trace = %d, want 0 or 1\n", *trace)
		os.Exit(2)
	}
	if !(*seconds >= 0) || math.IsInf(*seconds, 1) {
		fmt.Fprintf(os.Stderr, "--seconds = %v, want a finite number ≥ 0\n", *seconds)
		os.Exit(2)
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, ok := lookup(*name); ok {
		run = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown --workload %q\n", *name)
		os.Exit(2)
	}
	o := options{
		params:  params{seed: *seed, horizon: defaultHorizon, replications: defaultReplications},
		seconds: *seconds,
		trace:   *trace == 1,
		workers: timedWorkers,
	}
	ok := true
	for _, w := range run {
		out, spans := runWorkload(w, o, os.Stdout)
		if o.trace {
			if err := writeSpans(w.name, spans); err != nil {
				fmt.Fprintln(os.Stderr, "writing spans:", err)
			}
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "encoding result:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && out.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload measures one workload and returns its result line and,
// for a traced run, the spans it recorded.
func runWorkload(w workload, o options, out io.Writer) (output, []span) {
	c := &checker{w: out}
	fmt.Fprintf(out, "workload %s  seed %d  horizon %g  replications %d  workers %d  trace %t\n",
		w.name, o.seed, o.horizon, o.replications, o.workers, o.trace)
	var (
		m     map[string]float64
		spans []span
		want  = endToEnd
	)
	if o.trace {
		m, spans = layers(w, o, c, out)
		want = perLayer
	} else {
		m = endToEndRun(w, o, c, out)
	}
	res := output{Metrics: map[string]value{}}
	for _, mt := range want {
		v, present := m[mt.name]
		c.check(present, "metric %s was not measured", mt.name)
		c.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s = %v", mt.name, v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[mt.name] = value{Value: v, Unit: mt.unit}
		fmt.Fprintf(out, "  %-28s %16.6g %s\n", mt.name, v, mt.unit)
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0
	fmt.Fprintf(out, "  failed_frac %.4f (%d of %d jobs and checks)\n",
		float64(c.failed)/float64(max(c.attempted, 1)), c.failed, c.attempted)
	return res, spans
}

// writeSpans saves a traced run's spans as JSON in
// .bench_build/spans-<workload>.json under the working directory.
func writeSpans(workload string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(".bench_build", "spans-"+workload+".json"), b, 0o644)
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

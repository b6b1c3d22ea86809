package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/busnet/busnet/pkg/busnet/opt"
)

const (
	// minIterations is the fewest timed passes a run makes, whatever
	// --seconds says, so every quartile has passes on both sides.
	minIterations = 3
	// warmupShrink is how much shorter the warm-up pass's horizon is
	// than a timed pass's.
	warmupShrink = 100
)

// endToEndRun measures the workload with tracing off: a warm-up pass at
// a short horizon runs every code path once, then timed passes repeat
// while one more pass of median length still fits in --seconds. The
// first timed pass gives the reference report.
//
// Times are reported as the upper quartile over the passes, and rates
// as the lower quartile. On a host whose CPUs are shared with other
// machines, passes fall into a usual, contended speed and bursts up to
// twice as fast while the other load pauses. The outer quartile follows
// the usual speed unless a burst covers a quarter of the run. A median
// moves with every burst. Allocation and memory are nearly the same in
// every pass, so they are reported as medians.
func endToEndRun(w workload, o options, c *checker, out io.Writer) map[string]float64 {
	m := map[string]float64{"setup_s": setupSeconds(w, o.params, c)}
	warm := o.params
	warm.horizon /= warmupShrink
	if _, err := w.build(warm).run(o.workers); c.fail(err, "warm-up run") {
		return m
	}
	in := w.build(o.params)

	var (
		ref                              result
		refDigest                        string
		walls, cpus, jobs, allocs, peaks []float64
	)
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start).Seconds()+median(walls) <= o.seconds; i++ {
		// Start every pass from a collected heap returned to the OS, so
		// its peak resident set is its own.
		debug.FreeOSMemory()
		perPass := resetPeakRSS()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		t0 := time.Now()
		r, err := in.run(o.workers)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		c.attempted += int(r.jobs)
		if c.fail(err, fmt.Sprintf("pass %d", i)) {
			return m
		}
		d, err := digest(r.value)
		if i == 0 {
			ref, refDigest = r, d
			c.fail(sane(r), "first pass's result")
			c.fail(err, "encoding the first pass's result")
		} else {
			c.check(err == nil && d == refDigest, "pass %d: report differs from the first pass", i)
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		jobs = append(jobs, float64(r.jobs))
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if perPass {
			peaks = append(peaks, peakRSSMB())
		}
	}
	events := ref.events
	if in.problems != nil {
		// Outcome carries no event counts; replay the races' jobs once,
		// untimed. Races are deterministic, so every pass fired these.
		var err error
		events, err = raceEvents(ref.value.([]opt.Outcome), c)
		c.fail(err, "replaying the race's jobs")
	}
	var nsEvent, eventsPerS, jobsPerS []float64
	for i, wall := range walls {
		nsEvent = append(nsEvent, cpus[i]*1e9/float64(events))
		eventsPerS = append(eventsPerS, float64(events)/wall)
		jobsPerS = append(jobsPerS, jobs[i]/wall)
	}
	m["wall_s"] = quantile(walls, 0.75)
	m["cpu_s"] = quantile(cpus, 0.75)
	m["ns_per_event"] = quantile(nsEvent, 0.75)
	m["events_per_s"] = quantile(eventsPerS, 0.25)
	m["jobs_per_s"] = quantile(jobsPerS, 0.25)
	m["alloc_mb"] = median(allocs)
	if len(peaks) > 0 {
		m["peak_rss_mb"] = median(peaks)
	} else {
		m["peak_rss_mb"] = processPeakRSSMB()
	}

	fmt.Fprintf(out, "  passes %d  wall_s quartiles %.4f / %.4f / %.4f  ns_per_event quartiles %.2f / %.2f / %.2f\n",
		len(walls), quantile(walls, 0.25), median(walls), quantile(walls, 0.75),
		quantile(nsEvent, 0.25), median(nsEvent), quantile(nsEvent, 0.75))
	fmt.Fprintf(out, "  events %d  des_jobs %d  ci_miss_frac %.4f (%d of %d overlay pairs outside the 95%% CI)\n",
		events, ref.jobs, ref.ci.frac(), ref.ci.misses, ref.ci.pairs)
	return m
}

// setupSeconds is the median time, over repeated trials, to build the
// workload's inputs and plan them: everything before the first DES job.
func setupSeconds(w workload, p params, c *checker) float64 {
	const minTrials, minTotal = 51, 300 * time.Millisecond
	var trials []float64
	start := time.Now()
	for len(trials) < minTrials || time.Since(start) < minTotal {
		t0 := time.Now()
		_, _, err := w.build(p).plan()
		trials = append(trials, time.Since(t0).Seconds())
		if err != nil {
			c.fail(err, "planning")
			break
		}
	}
	return median(trials)
}

// raceEvents replays every DES job the finished races executed, on a
// pool of checkWorkers because it is not timed, and returns the events
// they fired. The replay must match the races' own job counts.
func raceEvents(outs []opt.Outcome, c *checker) (uint64, error) {
	jobs := raceJobs(outs)
	var want uint64
	for _, o := range outs {
		want += o.DESJobs
	}
	c.check(uint64(len(jobs)) == want, "races report %d DES jobs, their ranked tables imply %d", want, len(jobs))
	done, err := execute(nil, -1, jobs, checkWorkers)
	if err != nil {
		return 0, err
	}
	var fired uint64
	for _, d := range done {
		fired += d.diag.Engine.Fired
	}
	return fired, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// resetPeakRSS restarts the kernel's peak resident set count for this
// process (Linux 4.0 and later), reporting whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the peak resident set size in MB since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return processPeakRSSMB()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var n float64
			if _, err := fmt.Sscanf(strings.TrimSpace(kb), "%g kB", &n); err == nil {
				return n * 1024 / 1e6
			}
		}
	}
	return processPeakRSSMB()
}

// processPeakRSSMB is the process's lifetime peak resident set in MB.
func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kB
}

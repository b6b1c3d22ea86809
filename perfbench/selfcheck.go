package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// selfCheck runs every workload at a tiny horizon, untraced and traced,
// and checks that BENCHMARK.json names exactly the workloads and metrics
// the program emits, that every run is correct and emits every metric
// with its unit, and that every span lies inside its parent.
func selfCheck(out io.Writer) error {
	if err := checkContract(); err != nil {
		return err
	}
	o := options{
		params:  params{seed: 7, horizon: 2000, replications: 3},
		workers: timedWorkers,
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.trace = traced
			res, spans := runWorkload(w, o, io.Discard)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct {
				return fmt.Errorf("%s (trace %t): %d of %d checks failed", w.name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s (trace %t): %d metrics emitted, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, mt := range want {
				if v, ok := res.Metrics[mt.name]; !ok || v.Unit != mt.unit {
					return fmt.Errorf("%s (trace %t): metric %s missing or not in %s", w.name, traced, mt.name, mt.unit)
				}
			}
			if traced {
				if len(spans) == 0 {
					return fmt.Errorf("%s: traced run recorded no spans", w.name)
				}
				if err := nested(spans); err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
			}
			fmt.Fprintf(out, "%-14s trace %-5t %2d metrics, %3d spans ok\n", w.name, traced, len(res.Metrics), len(spans))
		}
	}
	return nil
}

// checkContract compares BENCHMARK.json, read from the working
// directory, with the program's workloads and metric tables.
func checkContract() error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var ct contract
	if err := json.Unmarshal(b, &ct); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(ct.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(ct.Workloads), len(workloads))
	}
	for i, w := range ct.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []contractMetric, want []metric) error {
		if len(got) != len(want) {
			return fmt.Errorf("BENCHMARK.json lists %d %s metrics, the program emits %d", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				return fmt.Errorf("BENCHMARK.json %s metric %d is %s (%s), the program's is %s (%s)",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", ct.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", ct.PerLayer, perLayer)
}

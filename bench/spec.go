package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The contract of the benchmark (workload and metric names, units and
// bounds) is BENCHMARK.json at the repository root, the file the
// driver reads. It is loaded at start-up and kept nowhere else: a
// metric named there and not measured, or measured and not named
// there, fails the repetition.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // share of the parent's median; end-to-end only
}

type spec struct {
	// RunSeconds is the measured window's length unless --seconds or
	// --ops says otherwise.
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	// EndToEnd are what a user of the system sees. Host metrics are the
	// sandbox's wall clock; v* metrics are the cost model's virtual clock.
	EndToEnd []metricDef `json:"end_to_end"`
	// PerLayer are single layers' numbers, taken from the traced run. A
	// metric whose layer does not run in a workload reads 0 there.
	PerLayer []metricDef `json:"per_layer"`
}

// contract is loaded by main (run.sh starts the program in the
// repository root) and by the tests.
var contract spec

// failBound is fail_share's bound, absolute: the share of attempted
// ops that may fail beyond the parent's before a change is a
// regression. The parent's share is 0 on every workload, and the
// driver's manifest cannot hold a metric that is 0, so this one bound
// lives here.
const failBound = 0.001

func loadContract(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (the benchmark runs from the repository root; use bench/run.sh)", err)
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(contract.Workloads) == 0 || len(contract.EndToEnd) == 0 || len(contract.PerLayer) == 0 {
		return fmt.Errorf("%s: no workloads or no metrics", path)
	}
	return nil
}

// emit turns measured values into the result's metrics, in the
// contract's names and units.
func emit(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is named in BENCHMARK.json and not measured", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	if len(out) != len(vals) {
		return nil, fmt.Errorf("%d metrics measured, %d distinct names in BENCHMARK.json", len(vals), len(out))
	}
	return out, nil
}

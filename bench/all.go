package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is what `bench all` writes and `bench compare` reads.
type report struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type stamp struct {
	GitSHA  string  `json:"git_sha"`
	Go      string  `json:"go"`
	NProc   int     `json:"nproc"`
	CPU     string  `json:"cpu_model"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Ops     uint64  `json:"ops,omitempty"`
	Reps    int     `json:"reps"`
	Date    string  `json:"date"`
}

type workloadReport struct {
	EndToEnd  map[string]*series     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Attempted []uint64               `json:"attempted"`
	Failed    []uint64               `json:"failed"`
}

// series is one end-to-end metric over the repetitions.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	s.Min, s.Max, s.Median = sorted[0], sorted[len(sorted)-1], median(sorted)
}

// runAll runs every workload reps times, each repetition a fresh child
// process (so allocation counts, GC state and memory are its own),
// round-robin so that a slow minute on the machine spreads over all
// four, then one traced repetition each.
func runAll(args []string) int {
	var cfg config
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	oneFlags(fs, &cfg)
	reps := fs.Int("reps", 3, "untraced repetitions per workload")
	out := fs.String("out", "", "output file (default <results dir>/run-<date>.json)")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 || *reps < 1 {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench all:", err)
		return 1
	}
	rep := report{
		Stamp: stamp{
			GitSHA: gitSHA(), Go: runtime.Version(), NProc: runtime.NumCPU(), CPU: cpuModel(),
			Seed: cfg.seed, Seconds: cfg.seconds, Ops: cfg.ops, Reps: *reps,
			Date: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]*workloadReport{},
	}
	for _, w := range contract.Workloads {
		rep.Workloads[w.Name] = &workloadReport{EndToEnd: map[string]*series{}}
	}
	code := 0
	for i := 0; i <= *reps; i++ {
		traced := i == *reps
		for _, w := range contract.Workloads {
			childArgs := []string{
				"--workload", w.Name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
				"--ops", fmt.Sprint(cfg.ops),
				"--trace", map[bool]string{false: "0", true: "1"}[traced],
			}
			res, err := runChild(self, childArgs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench all: %s: %v\n", w.Name, err)
				code = 1
				continue
			}
			wr := rep.Workloads[w.Name]
			if traced {
				wr.PerLayer = res.Metrics
				fmt.Printf("%-18s traced  %d ops\n", w.Name, res.Attempted)
				continue
			}
			wr.Attempted, wr.Failed = append(wr.Attempted, res.Attempted), append(wr.Failed, res.Failed)
			for name, mv := range res.Metrics {
				if wr.EndToEnd[name] == nil {
					wr.EndToEnd[name] = &series{Unit: mv.Unit}
				}
				wr.EndToEnd[name].add(mv.Value)
			}
			fmt.Printf("%-18s rep %d   %d ops, %d failed, %.0f ops/s\n", w.Name, i+1, res.Attempted, res.Failed, res.Metrics["ops_per_s"].Value)
		}
	}
	if *out == "" {
		*out = filepath.Join(resultsDir, "run-"+time.Now().UTC().Format("20060102-150405")+".json")
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(*out), 0o755)
	}
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench all:", err)
		return 1
	}
	fmt.Println("wrote", *out)
	return code
}

// runChild runs one repetition and parses the last line it printed. A
// child that exits non-zero (oracle violation, missing metric) is an
// error even if it printed a result.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("repetition failed (%v):\n%s", runErr, stdout.String())
	}
	return &res, nil
}

func gitSHA() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

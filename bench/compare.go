package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict compares one metric's medians, a before b. delta is b's
// change in the worsening direction as a share of a (positive =
// worse). A side whose own min–max spread exceeds the bound cannot
// resolve a difference of the bound's size, so the pair is unresolved,
// not unchanged.
func verdict(d metricDef, a, b *series) (delta float64, v string) {
	delta = (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		delta = -delta
	}
	spread := func(s *series) float64 { return (s.Max - s.Min) / s.Median }
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		v = "unresolved"
	case delta > d.Bound:
		v = "worse"
	case delta < -d.Bound:
		v = "better"
	default:
		v = "within"
	}
	return delta, v
}

// failShare is a side's failed ops over its attempted ops, all
// repetitions together.
func (wr *workloadReport) failShare() float64 {
	var attempted, failed uint64
	for i := range wr.Attempted {
		attempted, failed = attempted+wr.Attempted[i], failed+wr.Failed[i]
	}
	return float64(failed) / float64(attempted)
}

// failVerdict judges fail_share, whose bound is absolute: the share is
// 0 at the baseline, and a share of 0 has no relative change.
func failVerdict(a, b float64) string {
	switch {
	case b-a > failBound:
		return "worse"
	case a-b > failBound:
		return "better"
	}
	return "within"
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare prints, per workload and end-to-end metric (fail_share
// last, against its absolute bound), both medians, the change against
// the metric's bound and a verdict. It exits 1 when
// any metric is worse or missing.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	b, err := loadReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	fmt.Printf("A: %s  %s seed %d\nB: %s  %s seed %d\n", args[0], a.Stamp.GitSHA, a.Stamp.Seed, args[1], b.Stamp.GitSHA, b.Stamp.Seed)
	counts := map[string]int{}
	for _, w := range contract.Workloads {
		fmt.Printf("\n%s\n  %-26s %14s %14s %9s %7s  %s\n", w.Name, "metric", "A median", "B median", "change", "bound", "verdict")
		for _, d := range contract.EndToEnd {
			var sa, sb *series
			if wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]; wa != nil && wb != nil {
				sa, sb = wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			}
			if sa == nil || sb == nil {
				fmt.Printf("  %-26s missing\n", d.Name)
				counts["missing"]++
				continue
			}
			delta, v := verdict(d, sa, sb)
			counts[v]++
			fmt.Printf("  %-26s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", d.Name, sa.Median, sb.Median, 100*delta, 100*d.Bound, v)
		}
		if wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]; wa != nil && wb != nil && len(wa.Attempted) > 0 && len(wb.Attempted) > 0 {
			fa, fb := wa.failShare(), wb.failShare()
			v := failVerdict(fa, fb)
			counts[v]++
			fmt.Printf("  %-26s %14.4f %14.4f %+9.4f %7.3f  %s\n", "fail_share", fa, fb, fb-fa, failBound, v)
		}
	}
	fmt.Printf("\nchange is B against A in the worsening direction; %d within, %d better, %d worse, %d unresolved, %d missing\n",
		counts["within"], counts["better"], counts["worse"], counts["unresolved"], counts["missing"])
	if counts["worse"]+counts["missing"] > 0 {
		return 1
	}
	return 0
}

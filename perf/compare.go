package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareFiles prints one row per (workload, end-to-end metric) of two
// results.json files — both values, b ÷ a, and a verdict against the
// metric's own bound — and returns how many rows are worse.
//
// Simulated metrics compare exactly: any worsening is "worse". A host metric
// is "worse" when b is beyond a by more than the bound in the wrong
// direction, unless either side's own repetitions spread wider than the
// bound: then the difference cannot be told from noise and the row is
// "unresolved".
func compareFiles(w io.Writer, pathA, pathB string) (worse int, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return 0, err
	}
	if a.Seed != b.Seed || a.Scale != b.Scale {
		return 0, fmt.Errorf("results differ in inputs: seed %d scale %g against seed %d scale %g", a.Seed, a.Scale, b.Seed, b.Scale)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (%.12s)\tb (%.12s)\tb/a\tbound\tverdict\n", a.Machine.Commit, b.Machine.Commit)
	for _, wl := range workloads {
		pa, pb := a.Workloads[wl.name], b.Workloads[wl.name]
		if pa == nil || pb == nil || pa.EndToEnd == nil || pb.EndToEnd == nil {
			return 0, fmt.Errorf("workload %s is missing from a result file", wl.name)
		}
		for _, d := range endToEnd {
			va, vb := pa.EndToEnd.Metrics[d.name].Value, pb.EndToEnd.Metrics[d.name].Value
			verdict := judge(d, va, vb, max(pa.EndToEnd.Spread[d.name], pb.EndToEnd.Spread[d.name]))
			if verdict == "worse" {
				worse++
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.simulated {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%s\t%s\n", wl.name, d.name, va, d.unit, vb, d.unit, vb/va, bound, verdict)
		}
	}
	return worse, tw.Flush()
}

// judge compares b against the baseline a for one metric.
func judge(d metricDef, a, b, spread float64) string {
	worsening := (b - a) / a // as a share of the baseline
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case d.simulated && worsening > 0:
		return "worse"
	case d.simulated || worsening <= d.bound:
		return "ok"
	case spread > d.bound:
		return "unresolved"
	default:
		return "worse"
	}
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

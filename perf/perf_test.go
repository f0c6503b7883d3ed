package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/wire"
)

const smokeScale = 0.01

// TestSmoke builds the program and drives it the way run.sh does: every
// workload, both passes, at 1/100 size, then -compare on its own output.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "perf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	out, err := run("-scale", fmt.Sprint(smokeScale), "-seconds", "0.05")
	if err != nil {
		t.Fatalf("perf: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, pass := range []string{"end-to-end", "per-layer"} {
			if !strings.Contains(out, "== "+w.name+"  "+pass) {
				t.Errorf("no %s table for %s", pass, w.name)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("no trace file for %s: %v", w.name, err)
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, "out", "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		p := res.Workloads[w.name]
		if p == nil || p.EndToEnd == nil || p.PerLayer == nil {
			t.Fatalf("%s: passes missing from results.json", w.name)
		}
		for _, rec := range []*record{p.EndToEnd, p.PerLayer} {
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (%s)", w.name, rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.Why)
			}
		}
		for _, d := range endToEnd {
			if v := p.EndToEnd.Metrics[d.name]; !(v.Value > 0) || v.Unit != d.unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %s", w.name, d.name, v.Value, v.Unit, d.unit)
			}
		}
		if len(p.PerLayer.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(p.PerLayer.Metrics), len(perLayer))
		}
		if r := p.PerLayer.Metrics["trace.msgs_per_op_ratio"].Value; math.Abs(r-1) > maxMsgsRatioError {
			t.Errorf("%s: bare cluster sends %.4f of the runner's messages per op", w.name, r)
		}
	}

	same := filepath.Join(dir, "out", "results.json")
	if out, err := run("-compare", same, same); err != nil || strings.Contains(out, "worse") {
		t.Errorf("-compare of a file with itself: %v\n%s", err, out)
	}
	// A second file whose plain workload needs more messages per op must fail.
	res.Workloads["smr_plain_n16"].EndToEnd.Metrics["msgs_per_op"] = metricValue{Value: 1e9, Unit: "msgs"}
	worse := filepath.Join(dir, "worse.json")
	if err := writeJSON(worse, res); err != nil {
		t.Fatal(err)
	}
	if out, err := run("-compare", same, worse); err == nil || !strings.Contains(out, "worse") {
		t.Errorf("-compare did not reject a worse msgs_per_op: %v\n%s", err, out)
	}
}

// TestSeedDrivesSimulatedMetrics: the same seed reproduces the sample bit for
// bit, another seed changes it.
func TestSeedDrivesSimulatedMetrics(t *testing.T) {
	for _, w := range workloads {
		sampleOf := func(seed int64) sample {
			s, _, err := w.new(seed, smokeScale).run(false)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if s.Failed != 0 {
				t.Fatalf("%s seed %d: %d failed ops: %s", w.name, seed, s.Failed, s.Why)
			}
			return s
		}
		a, again, b := sampleOf(1), sampleOf(1), sampleOf(2)
		if a != again {
			t.Errorf("%s: seed 1 gave %+v then %+v", w.name, a, again)
		}
		if a.Messages == b.Messages && a.Ticks == b.Ticks {
			t.Errorf("%s: seeds 1 and 2 gave the same messages and ticks: %+v", w.name, a)
		}
	}
}

// TestBrokenExpectationFails: a restart run that installed no transfer, or
// any mismatch, fails ops and names the field.
func TestBrokenExpectationFails(t *testing.T) {
	restart := &runner.SMRRestart{}
	for _, tc := range []struct {
		name string
		res  runner.SMRResult
		want string
	}{
		{"healthy", runner.SMRResult{Entries: 10, FullStream: true, Transfers: 1, VictimCommitted: 3, Config: runner.SMRConfig{Restart: restart}}, ""},
		{"no transfer", runner.SMRResult{Entries: 10, FullStream: true, VictimCommitted: 3, Config: runner.SMRConfig{Restart: restart}}, "Transfers"},
		{"victim down", runner.SMRResult{Entries: 10, FullStream: true, VictimDown: true, Config: runner.SMRConfig{Restart: restart}}, "VictimDown"},
		{"mismatch", runner.SMRResult{Entries: 10, FullStream: true, Mismatches: 2}, "Mismatches"},
		{"exhausted", runner.SMRResult{Entries: 10, FullStream: true, Exhausted: true}, "Exhausted"},
		{"gapped", runner.SMRResult{Entries: 10}, "FullStream"},
	} {
		s := smrSample(&tc.res)
		if (s.Failed > 0) != (tc.want != "") || !strings.Contains(s.Why, tc.want) {
			t.Errorf("%s: failed=%d why=%q, want the field %q", tc.name, s.Failed, s.Why, tc.want)
		}
		if s.Failed > s.Attempted {
			t.Errorf("%s: %d failed of %d attempted", tc.name, s.Failed, s.Attempted)
		}
	}
}

func TestJudge(t *testing.T) {
	host := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	sim := metricDef{name: "msgs_per_op", better: "lower", bound: 0.05, simulated: true}
	for _, tc := range []struct {
		d            metricDef
		a, b, spread float64
		want         string
	}{
		{host, 100, 95, 0.01, "ok"},
		{host, 100, 120, 0.01, "ok"},
		{host, 100, 85, 0.01, "worse"},
		{host, 100, 85, 0.12, "unresolved"},
		{sim, 100, 100, 0, "ok"},
		{sim, 100, 99, 0, "ok"},
		{sim, 100, 100.001, 0, "worse"},
	} {
		if got := judge(tc.d, tc.a, tc.b, tc.spread); got != tc.want {
			t.Errorf("judge(%s, %v -> %v, spread %v) = %s, want %s", tc.d.name, tc.a, tc.b, tc.spread, got, tc.want)
		}
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(vs, n=4).
func TestSpreadMatchesPython(t *testing.T) {
	vs := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// statistics.quantiles(vs, n=4) == [10.375, 11.75, 13.25]
	if got, want := spread(vs), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestWireCorpusRoundTrips: the wire kernels must time the success path.
func TestWireCorpusRoundTrips(t *testing.T) {
	for _, m := range wireCorpus {
		buf, err := wire.EncodeMessage(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if _, err := wire.DecodeMessage(buf); err != nil {
			t.Errorf("%v: %v", m, err)
		}
		if wire.MessageSize(m) != len(buf) {
			t.Errorf("%v: MessageSize %d, encoded %d", m, wire.MessageSize(m), len(buf))
		}
	}
}

// TestBenchmarkJSONMatches holds ../BENCHMARK.json to the tables in this
// package: the same command, workloads, metrics, units, directions, bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	want := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "perf/run.sh"}, Paths: []string{"perf"}, RunSeconds: 15}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, named{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		want.EndToEnd = append(want.EndToEnd, metric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	rendered := buf.Bytes()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rendered) {
		t.Errorf("BENCHMARK.json does not match the tables in perf/; it should read:\n%s", rendered)
	}
}

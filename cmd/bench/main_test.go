package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-quick", "-runs", "2", "-experiment", "E1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "E1 / Table 1") {
		t.Errorf("missing table title:\n%s", out)
	}
	if !strings.Contains(out, "(E1 in ") {
		t.Errorf("missing timing line:\n%s", out)
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-quick", "-runs", "2", "-experiment", "E5", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# E5:") {
		t.Errorf("missing CSV header comment:\n%s", out)
	}
	if !strings.Contains(out, "n,f,") {
		t.Errorf("missing CSV columns:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "E42"}, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

func TestRunScenarioList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenarios"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"equivocation-rush", "crash-rejoin", "rbc-partial"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scenario listing missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-sweep", "1:13", "-n", "8", "-scenario", "equivocation-rush", "-workers", "4"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"sweep equivocation-rush: n=8 f=2 seeds [1, 13)", "no violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSweepBadFlags(t *testing.T) {
	cases := [][]string{
		{"-sweep", "nonsense"},
		{"-sweep", "5:5"},
		{"-sweep", "9:1"},
		{"-sweep", "1:5", "-scenario", "no-such-attack"},
		{"-sweep", "1:5", "-experiment", "E1"},
		{"-sweep", "1:5", "-quick"},
		{"-sweep", "1:5", "-seed", "3"},
		{"-sweep", "1:5", "-csv"},
		{"-sweep", "1:5", "-stop-after", "2"}, // -stop-after without -checkpoint rejected up front
		{"-checkpoint", "ck.json", "-resume"}, // forgot -sweep: must not launch experiments
		{"-scenario", "reorder"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSweepResumeIdentical: a sweep stopped mid-way and resumed from its
// checkpoint must print byte-identical JSON to an uninterrupted sweep — the
// CLI surface of the engine's determinism contract.
func TestRunSweepResumeIdentical(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	common := []string{"-sweep", "1:41", "-n", "8", "-scenario", "crash-rejoin", "-workers", "3"}

	var stopped strings.Builder
	if err := run(append(common, "-checkpoint", ck, "-every", "10", "-stop-after", "17"), &stopped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stopped.String(), "sweep stopped after 17/40 runs") {
		t.Fatalf("unexpected stop notice:\n%s", stopped.String())
	}

	var resumed, fresh strings.Builder
	if err := run(append(common, "-checkpoint", ck, "-resume", "-json"), &resumed); err != nil {
		t.Fatal(err)
	}
	if err := run(append(common, "-json"), &fresh); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != fresh.String() {
		t.Errorf("resumed sweep output differs from uninterrupted sweep:\n--- resumed\n%s\n--- fresh\n%s",
			resumed.String(), fresh.String())
	}
}

// TestRunSweepStoppedJSON: a stopped sweep in -json mode must still emit
// parseable JSON on stdout (the notice goes to stderr).
func TestRunSweepStoppedJSON(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	var sb strings.Builder
	err := run([]string{"-sweep", "1:41", "-n", "8", "-scenario", "rbc-honest",
		"-checkpoint", ck, "-stop-after", "9", "-json"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Stopped   bool  `json:"stopped"`
		Completed int64 `json:"completed"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("stopped -json output is not JSON: %v\n%s", err, sb.String())
	}
	if !got.Stopped || got.Completed != 9 {
		t.Errorf("stop record = %+v, want stopped after 9 runs", got)
	}
}

// TestRunSweepStopOnFinalRun: a stop budget that fires exactly at the end
// of the range is just completion, not an interruption.
func TestRunSweepStopOnFinalRun(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	var sb strings.Builder
	err := run([]string{"-sweep", "1:5", "-n", "8", "-scenario", "rbc-honest", "-checkpoint", ck, "-stop-after", "4"}, &sb)
	if err != nil {
		t.Fatalf("stop-after on the final run failed the sweep: %v", err)
	}
	if !strings.Contains(sb.String(), "no violations") || strings.Contains(sb.String(), "stopped") {
		t.Errorf("expected a completed-sweep report:\n%s", sb.String())
	}
}

// TestRunSMRDigestsIdenticalAcrossCheckpointing: the -smr mode's digest
// lines — the CI comparison surface — are byte-identical with checkpointing
// off and at two cadences, while the residue line shrinks.
func TestRunSMRDigestsIdenticalAcrossCheckpointing(t *testing.T) {
	digests := func(args ...string) string {
		t.Helper()
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "digest ") {
				lines = append(lines, line)
			}
		}
		if len(lines) != 2 {
			t.Fatalf("want 2 digest lines, got %v", lines)
		}
		return strings.Join(lines, "\n")
	}
	off := digests("-smr", "64", "-n", "4")
	on := digests("-smr", "64", "-n", "4", "-ckpt-every", "16")
	on8 := digests("-smr", "64", "-n", "4", "-ckpt-every", "8")
	if off != on || off != on8 {
		t.Errorf("digest lines moved with checkpointing:\noff: %s\non16: %s\non8: %s", off, on, on8)
	}
}

// TestRunSMRRestartCatchup: the CLI restart-catchup smoke — the victim must
// report at least one state transfer.
func TestRunSMRRestartCatchup(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-smr", "48", "-n", "4", "-ckpt-every", "8", "-restart"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "victim:") || strings.Contains(out, "transfers=0") {
		t.Errorf("restart run reported no transfer:\n%s", out)
	}
}

// TestRunSMRJSON: the machine-readable form round-trips.
func TestRunSMRJSON(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-smr", "32", "-n", "4", "-ckpt-every", "8", "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Slots      int    `json:"slots"`
		LogDigest  string `json:"logDigest"`
		Cut        int    `json:"certifiedCut"`
		Deliveries int    `json:"deliveries"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Slots != 32 || len(rec.LogDigest) != 16 || rec.Cut == 0 || rec.Deliveries == 0 {
		t.Errorf("bad record: %+v", rec)
	}
}

// TestRunSMRBadFlags: cross-mode and dependent-flag rejection.
func TestRunSMRBadFlags(t *testing.T) {
	cases := [][]string{
		{"-smr", "32", "-sweep", "1:5"},        // mutually exclusive modes
		{"-smr", "32", "-experiment", "E1"},    // experiment knob in smr mode
		{"-smr", "32", "-quick"},               // experiment knob in smr mode
		{"-smr", "32", "-scenario", "reorder"}, // sweep knob in smr mode
		{"-smr", "32", "-restart"},             // restart without -ckpt-every
		{"-ckpt-every", "8"},                   // forgot -smr
		{"-restart"},                           // forgot -smr
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSMRNonPositiveRejected: -smr 0 / -smr -5 must error, not silently
// fall through to the full experiment suite.
func TestRunSMRNonPositiveRejected(t *testing.T) {
	for _, v := range []string{"0", "-5"} {
		var sb strings.Builder
		if err := run([]string{"-smr", v}, &sb); err == nil {
			t.Errorf("-smr %s accepted", v)
		}
	}
}

// TestRunThroughputText: the throughput grid mode emits one row per
// (batch, depth) point.
func TestRunThroughputText(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-throughput", "16", "-n", "4", "-batch", "1,4", "-pipeline", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "throughput: n=4") || strings.Count(out, "\n") < 4 {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestRunThroughputJSONWorkerIndependent: the -json record is the CI
// comparison surface — it must be byte-identical across worker counts
// (wall-clock telemetry goes to stderr, not here).
func TestRunThroughputJSONWorkerIndependent(t *testing.T) {
	render := func(workers string) string {
		var sb strings.Builder
		args := []string{"-throughput", "16", "-n", "4", "-batch", "1,4", "-pipeline", "1,2", "-json", "-workers", workers}
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial, parallel := render("1"), render("4")
	if serial != parallel {
		t.Fatalf("throughput JSON depends on -workers:\n%s\nvs\n%s", serial, parallel)
	}
	var rec struct {
		Points []struct {
			Batch     int    `json:"batch"`
			Entries   int    `json:"entries"`
			LogDigest string `json:"logDigest"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(serial), &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Points) != 4 {
		t.Fatalf("want 4 grid points, got %d", len(rec.Points))
	}
	for _, p := range rec.Points {
		if p.Entries < 16 || len(p.LogDigest) != 16 {
			t.Errorf("bad point: %+v", p)
		}
	}
}

// TestRunThroughputBadFlags: cross-mode and malformed-axis rejection.
func TestRunThroughputBadFlags(t *testing.T) {
	cases := [][]string{
		{"-throughput", "16", "-sweep", "1:5"},        // mutually exclusive modes
		{"-throughput", "16", "-smr", "32"},           // mutually exclusive modes
		{"-throughput", "16", "-quick"},               // experiment knob
		{"-throughput", "16", "-scenario", "reorder"}, // sweep knob
		{"-throughput", "16", "-restart"},             // smr knob
		{"-throughput", "0"},                          // non-positive target
		{"-throughput", "16", "-batch", "1,0"},        // non-positive axis value
		{"-throughput", "16", "-pipeline", "x"},       // malformed axis
		{"-batch", "4"},                               // forgot the mode
		{"-pipeline", "2"},                            // forgot the mode
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSearch: the search mode end to end — grid walk, ranked table out.
func TestRunSearch(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-search", "adaptive", "-n", "5", "-seeds", "1:3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "search adaptive (grid)") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "target-lag=480") || !strings.Contains(out, "target-lag=30") {
		t.Errorf("missing lattice points:\n%s", out)
	}
}

// TestRunSearchResumeIdentical: a search stopped mid-walk and resumed from
// its frontier must print byte-identical JSON to an uninterrupted search —
// the CLI surface of the engine's determinism contract.
func TestRunSearchResumeIdentical(t *testing.T) {
	front := filepath.Join(t.TempDir(), "frontier.json")
	common := []string{"-search", "lossy", "-n", "5", "-seeds", "1:3", "-json"}

	var stopped strings.Builder
	if err := run(append(common, "-checkpoint", front, "-stop-after", "6"), &stopped); err != nil {
		t.Fatal(err)
	}
	var resumed, fresh strings.Builder
	if err := run(append(common, "-checkpoint", front, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if err := run(append(common, "-workers", "2"), &fresh); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != fresh.String() {
		t.Errorf("resumed search differs from uninterrupted run:\nresumed:\n%s\nfresh:\n%s", resumed.String(), fresh.String())
	}
}

// TestRunModeFlagMatrix: cross-mode flag rejection over the full mode ×
// foreign-flag matrix. Every mode must reject the other modes' selector and
// their private knobs instead of silently ignoring them.
func TestRunModeFlagMatrix(t *testing.T) {
	modes := map[string][]string{
		"sweep":      {"-sweep", "1:5"},
		"smr":        {"-smr", "16"},
		"throughput": {"-throughput", "16"},
		"search":     {"-search", "adaptive"},
		"telemetry":  {"-telemetry"},
		"trace":      {"-trace", "out.jsonl"},
	}
	// A representative private knob of each mode, foreign to all others.
	foreign := map[string][]string{
		"sweep":      {"-every", "10"},
		"smr":        {"-restart"},
		"throughput": {"-batch", "1,2"},
		"search":     {"-descend"},
	}
	for mode, sel := range modes {
		// Pairwise mode exclusivity.
		for other, osel := range modes {
			if other == mode {
				continue
			}
			args := append(append([]string{}, sel...), osel...)
			var sb strings.Builder
			if err := run(args, &sb); err == nil {
				t.Errorf("%s+%s: args %v accepted", mode, other, args)
			}
		}
		// Foreign private knobs rejected.
		for other, knob := range foreign {
			if other == mode {
				continue
			}
			args := append(append([]string{}, sel...), knob...)
			var sb strings.Builder
			if err := run(args, &sb); err == nil {
				t.Errorf("%s with %s knob: args %v accepted", mode, other, args)
			}
		}
		// A private knob without its mode must not launch the battery.
		if knob, ok := foreign[mode]; ok {
			var sb strings.Builder
			if err := run(knob, &sb); err == nil {
				t.Errorf("bare %s knob: args %v accepted", mode, knob)
			}
		}
	}
}

// TestRunSearchBadFlags: search-specific rejections.
func TestRunSearchBadFlags(t *testing.T) {
	cases := [][]string{
		{"-search", "no-such-family"},
		{"-search", "adaptive", "-seeds", "nonsense"},
		{"-search", "adaptive", "-seeds", "5:5"},
		{"-search", "adaptive", "-quick"},
		{"-search", "adaptive", "-seed", "3"},
		{"-search", "adaptive", "-scenario", "reorder"},
		{"-search", "adaptive", "-stop-after", "2"}, // -stop-after without -checkpoint
		{"-seeds", "1:5"},                           // forgot -search
		{"-descend"},                                // forgot -search
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

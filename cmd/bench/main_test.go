package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mustRun runs bench with args and returns its stdout, failing the test on
// an error.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("%v: %v\noutput:\n%s", args, err, sb.String())
	}
	return sb.String()
}

// requireRejected fails the test for every argument list bench accepts.
func requireRejected(t *testing.T, cases ...[]string) {
	t.Helper()
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// requireContains fails the test for every want missing from out.
func requireContains(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	requireContains(t, mustRun(t, "exp", "-quick", "-runs", "2", "-experiment", "E1"), "E1 / Table 1", "(E1 in ")
}

func TestRunCSV(t *testing.T) {
	requireContains(t, mustRun(t, "exp", "-quick", "-runs", "2", "-experiment", "E5", "-csv"), "# E5:", "n,f,")
}

func TestRunUnknownExperiment(t *testing.T) {
	requireRejected(t, []string{"exp", "-experiment", "E42"})
}

// TestRunBadFlag: a missing or unknown subcommand lists the subcommands; a
// flag of another subcommand, or a stray argument, is rejected by the parse.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-quick"}} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "throughput") {
			t.Errorf("args %v: error %v does not list the subcommands", args, err)
		}
	}
	requireRejected(t, []string{"exp", "-bogus"}, []string{"exp", "-json", "-csv"},
		[]string{"sweep", "-slots", "8"}, []string{"smr", "64"},
		[]string{"exp", "-runs", "-1", "-experiment", "E5"},
		[]string{"run", "-n", "4", "-max-rounds", "-1"}, []string{"run", "-n", "4", "-max-deliveries", "-1"})
}

func TestRunScenarioList(t *testing.T) {
	requireContains(t, mustRun(t, "scenarios"), "equivocation-rush", "crash-rejoin", "rbc-partial", "smr -ckpt-every")
}

func TestRunSweep(t *testing.T) {
	out := mustRun(t, "sweep", "-seeds", "1:13", "-n", "8", "-scenario", "equivocation-rush", "-workers", "4")
	requireContains(t, out, "sweep equivocation-rush: n=8 f=2 seeds [1, 13)", "no violations")
}

func TestRunSweepBadFlags(t *testing.T) {
	requireRejected(t,
		[]string{"sweep", "-seeds", "nonsense"},
		[]string{"sweep", "-seeds", "5:5"},
		[]string{"sweep", "-seeds", "9:1"},
		[]string{"sweep", "-seeds", "1:5", "-scenario", "no-such-attack"},
		[]string{"sweep", "-seeds", "1:5", "-stop-after", "2"}, // -stop-after without -checkpoint rejected up front
	)
}

// TestRunSweepResumeIdentical: a sweep stopped mid-way and resumed from its
// checkpoint must print byte-identical JSON to an uninterrupted sweep — the
// CLI surface of the engine's determinism contract.
func TestRunSweepResumeIdentical(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	common := []string{"sweep", "-seeds", "1:41", "-n", "8", "-scenario", "crash-rejoin", "-workers", "3"}

	stopped := mustRun(t, append(common, "-checkpoint", ck, "-every", "10", "-stop-after", "17")...)
	requireContains(t, stopped, "sweep stopped after 17/40 runs")
	resumed := mustRun(t, append(common, "-checkpoint", ck, "-resume", "-json")...)
	if fresh := mustRun(t, append(common, "-json")...); resumed != fresh {
		t.Errorf("resumed sweep output differs from uninterrupted sweep:\n--- resumed\n%s\n--- fresh\n%s", resumed, fresh)
	}
}

// TestRunSweepStoppedJSON: a stopped sweep in -json mode must still emit
// parseable JSON on stdout (the notice goes to stderr).
func TestRunSweepStoppedJSON(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	out := mustRun(t, "sweep", "-seeds", "1:41", "-n", "8", "-scenario", "rbc-honest",
		"-checkpoint", ck, "-stop-after", "9", "-json")
	var got struct {
		Stopped   bool  `json:"stopped"`
		Completed int64 `json:"completed"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("stopped -json output is not JSON: %v\n%s", err, out)
	}
	if !got.Stopped || got.Completed != 9 {
		t.Errorf("stop record = %+v, want stopped after 9 runs", got)
	}
}

// TestRunSweepStopOnFinalRun: a stop budget that fires exactly at the end
// of the range is just completion, not an interruption.
func TestRunSweepStopOnFinalRun(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	out := mustRun(t, "sweep", "-seeds", "1:5", "-n", "8", "-scenario", "rbc-honest", "-checkpoint", ck, "-stop-after", "4")
	if !strings.Contains(out, "no violations") || strings.Contains(out, "stopped") {
		t.Errorf("expected a completed-sweep report:\n%s", out)
	}
}

// TestRunSMRDigestsIdenticalAcrossCheckpointing: the smr digest lines — the
// CI comparison surface — are byte-identical with checkpointing off and at
// two cadences, while the residue line shrinks.
func TestRunSMRDigestsIdenticalAcrossCheckpointing(t *testing.T) {
	digests := func(args ...string) string {
		t.Helper()
		var lines []string
		for _, line := range strings.Split(mustRun(t, append([]string{"smr", "-slots", "64", "-n", "4"}, args...)...), "\n") {
			if strings.HasPrefix(line, "digest ") {
				lines = append(lines, line)
			}
		}
		if len(lines) != 2 {
			t.Fatalf("want 2 digest lines, got %v", lines)
		}
		return strings.Join(lines, "\n")
	}
	off, on, on8 := digests(), digests("-ckpt-every", "16"), digests("-ckpt-every", "8")
	if off != on || off != on8 {
		t.Errorf("digest lines moved with checkpointing:\noff: %s\non16: %s\non8: %s", off, on, on8)
	}
}

// TestRunSMRRestartCatchup: the CLI restart-catchup smoke — the victim must
// report at least one state transfer.
func TestRunSMRRestartCatchup(t *testing.T) {
	out := mustRun(t, "smr", "-slots", "48", "-n", "4", "-ckpt-every", "8", "-restart")
	if !strings.Contains(out, "victim:") || strings.Contains(out, "transfers=0") {
		t.Errorf("restart run reported no transfer:\n%s", out)
	}
}

// TestRunSMRJSON: the machine-readable form round-trips.
func TestRunSMRJSON(t *testing.T) {
	var rec struct {
		Slots      int    `json:"slots"`
		LogDigest  string `json:"logDigest"`
		Cut        int    `json:"certifiedCut"`
		Deliveries int    `json:"deliveries"`
	}
	if err := json.Unmarshal([]byte(mustRun(t, "smr", "-slots", "32", "-n", "4", "-ckpt-every", "8", "-json")), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Slots != 32 || len(rec.LogDigest) != 16 || rec.Cut == 0 || rec.Deliveries == 0 {
		t.Errorf("bad record: %+v", rec)
	}
}

// TestRunSMRBadFlags: dependent-flag and negative-cadence rejection.
func TestRunSMRBadFlags(t *testing.T) {
	requireRejected(t,
		[]string{"smr", "-slots", "32", "-restart"},                    // restart without -ckpt-every
		[]string{"smr", "-slots", "32", "-ckpt-attack", "mac-forge"},   // attack without -ckpt-every
		[]string{"smr", "-slots", "8", "-n", "4", "-ckpt-every", "-4"}, // negative cadence
	)
}

// TestRunSMRNonPositiveRejected: a missing, zero or negative -slots is an
// error, not an empty run.
func TestRunSMRNonPositiveRejected(t *testing.T) {
	requireRejected(t, []string{"smr"}, []string{"smr", "-slots", "0"}, []string{"smr", "-slots", "-5"})
}

// TestRunThroughputText: the throughput grid emits one row per (batch,
// depth) point.
func TestRunThroughputText(t *testing.T) {
	out := mustRun(t, "throughput", "-entries", "16", "-n", "4", "-batch", "1,4", "-pipeline", "1")
	if !strings.Contains(out, "throughput: n=4") || strings.Count(out, "\n") < 4 {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestRunThroughputJSONWorkerIndependent: the -json record is the CI
// comparison surface — it must be byte-identical across worker counts
// (wall-clock telemetry goes to stderr, not here).
func TestRunThroughputJSONWorkerIndependent(t *testing.T) {
	render := func(workers string) string {
		return mustRun(t, "throughput", "-entries", "16", "-n", "4", "-batch", "1,4", "-pipeline", "1,2", "-json", "-workers", workers)
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

// TestRunThroughputBadFlags: non-positive target and malformed-axis
// rejection.
func TestRunThroughputBadFlags(t *testing.T) {
	requireRejected(t,
		[]string{"throughput", "-entries", "0"},
		[]string{"throughput", "-entries", "16", "-batch", "1,0"},  // non-positive axis value
		[]string{"throughput", "-entries", "16", "-pipeline", "x"}, // malformed axis
	)
}

// TestRunSearch: the search end to end — grid walk, ranked table out.
func TestRunSearch(t *testing.T) {
	out := mustRun(t, "search", "-family", "adaptive", "-n", "5", "-seeds", "1:3")
	requireContains(t, out, "search adaptive (grid)", "target-lag=480", "target-lag=30")
}

// TestRunSearchResumeIdentical: a search stopped mid-walk and resumed from
// its frontier must print byte-identical JSON to an uninterrupted search —
// the CLI surface of the engine's determinism contract.
func TestRunSearchResumeIdentical(t *testing.T) {
	front := filepath.Join(t.TempDir(), "frontier.json")
	common := []string{"search", "-family", "lossy", "-n", "5", "-seeds", "1:3", "-json"}

	mustRun(t, append(common, "-checkpoint", front, "-stop-after", "6")...)
	resumed := mustRun(t, append(common, "-checkpoint", front, "-resume")...)
	if fresh := mustRun(t, append(common, "-workers", "2")...); resumed != fresh {
		t.Errorf("resumed search differs from uninterrupted run:\nresumed:\n%s\nfresh:\n%s", resumed, fresh)
	}
}

// TestRunSearchBadFlags: search-specific rejections.
func TestRunSearchBadFlags(t *testing.T) {
	requireRejected(t,
		[]string{"search", "-family", "no-such-family"},
		[]string{"search", "-family", "adaptive", "-seeds", "nonsense"},
		[]string{"search", "-family", "adaptive", "-seeds", "5:5"},
		[]string{"search", "-family", "adaptive", "-stop-after", "2"}, // -stop-after without -checkpoint
	)
}

func TestRunCleanConfiguration(t *testing.T) {
	out := mustRun(t, "run", "-n", "4", "-f", "1", "-adversary", "liar", "-seed", "3")
	requireContains(t, out, "violations: none", "all-decided=true", "coin=common")
}

// TestRunDefaultFaultBound: without -f a run assumes ⌊(n−1)/3⌋ faults, so
// n=4 runs at f=1 and decides (a fixed f=2 left n=4 undecided).
func TestRunDefaultFaultBound(t *testing.T) {
	requireContains(t, mustRun(t, "run", "-n", "4"), "n=4 f=1 ", "all-decided=true")
}

func TestRunBrokenConfigurationFails(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"run", "-n", "4", "-f", "1", "-byzantine", "2",
		"-adversary", "split-brain", "-scheduler", "rush-byz",
		"-max-rounds", "50", "-max-deliveries", "200000",
	}, &sb)
	if err == nil {
		t.Fatalf("oversized-f run reported success:\n%s", sb.String())
	}
	requireContains(t, sb.String(), "agreement")
}

// TestRunTraceOutput: -trace writes the causal JSONL dump, parent links
// included, and prints the decision critical paths.
func TestRunTraceOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	out := mustRun(t, "run", "-n", "4", "-adversary", "none", "-coin", "ideal", "-trace", path)
	requireContains(t, out, "critical-path attribution")
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireContains(t, string(dump), `"kind":"DECIDE"`, `"parent":`)
}

// TestRunRejectsBadFlags: an unknown name is rejected with the valid ones
// listed, straight from the runner's name tables.
func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		args  []string
		valid string // one valid name the error must offer
	}{
		{[]string{"-protocol", "pbft"}, "benor"},
		{[]string{"-coin", "quantum"}, "ideal"},
		{[]string{"-adversary", "gremlin"}, "crash-midway"},
		{[]string{"-scheduler", "psychic"}, "adaptive-rush"},
		{[]string{"-inputs", "all-sevens"}, "unanimous-1"},
	}
	for _, tt := range tests {
		err := run(append([]string{"run"}, tt.args...), io.Discard)
		if err == nil {
			t.Errorf("args %v accepted", tt.args)
		} else if !strings.Contains(err.Error(), tt.valid) {
			t.Errorf("args %v: error does not list %q: %v", tt.args, tt.valid, err)
		}
	}
}

func TestRunBenOr(t *testing.T) {
	requireContains(t, mustRun(t, "run", "-n", "11", "-f", "2", "-protocol", "benor", "-adversary", "silent"), "benor")
}

// TestRunWholeZoo: every scheduler family the runner names is reachable from
// the command line.
func TestRunWholeZoo(t *testing.T) {
	out := mustRun(t, "run", "-n", "7", "-f", "2", "-adversary", "liar", "-scheduler", "adaptive-rush", "-inputs", "random")
	requireContains(t, out, "scheduler=adaptive-rush", "violations: none", "all-decided=true")
}

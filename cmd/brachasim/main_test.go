package main

import (
	"strings"
	"testing"
)

func TestRunCleanConfiguration(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "4", "-f", "1", "-adversary", "liar", "-seed", "3"}, &sb)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"violations: none", "all-decided=true", "coin=common"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBrokenConfigurationFails(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-n", "4", "-f", "1", "-byzantine", "2",
		"-adversary", "split-brain", "-scheduler", "rush-byz",
		"-max-rounds", "50", "-max-deliveries", "200000",
	}, &sb)
	if err == nil {
		t.Fatalf("oversized-f run reported success:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "agreement") {
		t.Errorf("expected an agreement violation in output:\n%s", sb.String())
	}
}

func TestRunTraceOutput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "4", "-f", "1", "-adversary", "none", "-trace", "-coin", "ideal"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "--- trace ---") || !strings.Contains(out, "DECIDE") {
		t.Errorf("trace output missing:\n%s", out)
	}
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
		var sb strings.Builder
		err := run(tt.args, &sb)
		if err == nil {
			t.Errorf("args %v accepted", tt.args)
		} else if !strings.Contains(err.Error(), tt.valid) {
			t.Errorf("args %v: error does not list %q: %v", tt.args, tt.valid, err)
		}
	}
}

func TestRunBenOr(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "11", "-f", "2", "-protocol", "benor", "-adversary", "silent"}, &sb)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "benor") {
		t.Errorf("output missing protocol name:\n%s", sb.String())
	}
}

// TestRunWholeZoo: every scheduler family the runner names is reachable from
// the command line (the flag once knew 4 of the 12).
func TestRunWholeZoo(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-n", "7", "-f", "2", "-adversary", "liar", "-scheduler", "adaptive-rush", "-inputs", "random"}, &sb)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, sb.String())
	}
	for _, want := range []string{"scheduler=adaptive-rush", "violations: none", "all-decided=true"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q:\n%s", want, sb.String())
		}
	}
}

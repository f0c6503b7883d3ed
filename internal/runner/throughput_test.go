package runner

import (
	"os"
	"reflect"
	"testing"
)

// TestThroughputWorkerIndependence: the whole grid's output must be bitwise
// identical whatever the worker count — points are keyed by grid index, and
// each point is a pure function of (config, seed).
func TestThroughputWorkerIndependence(t *testing.T) {
	base := SMRConfig{N: 4, F: 1, Seed: 7}
	batches, depths := []int{1, 4}, []int{1, 2}
	serial, err := RunThroughput(base, 24, batches, depths, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunThroughput(base, 24, batches, depths, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("throughput grid depends on worker count:\n 1: %+v\n 4: %+v", serial, parallel)
	}
}

// TestThroughputBatchScaling: batching must raise committed entries per
// delivery — the point of the whole engine. Each point must also be healthy
// (no mismatches, drops, duplicates, or budget exhaustion) and meet its
// entry target.
func TestThroughputBatchScaling(t *testing.T) {
	points, err := RunThroughput(SMRConfig{N: 4, F: 1, Seed: 11}, 48, []int{1, 8}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Mismatches != 0 || p.SubmitDropped != 0 || p.DuplicateCommands != 0 || p.Exhausted {
			t.Fatalf("unhealthy point %+v", p)
		}
		if p.Entries < 48 {
			t.Fatalf("batch=%d committed %d entries, want >= 48", p.Config.Batch, p.Entries)
		}
	}
	base, batched := points[0], points[1]
	if batched.EntriesPerKDeliveries() < 4*base.EntriesPerKDeliveries() {
		t.Fatalf("batch=8 throughput %.2f entries/kdelivery, want >= 4x batch=1's %.2f",
			batched.EntriesPerKDeliveries(), base.EntriesPerKDeliveries())
	}
}

// TestThroughputCheckpointIndependence: at equal frontiers the digests must
// not depend on the checkpoint cadence, batched or not — checkpointing
// retires residue, it never moves what commits.
func TestThroughputCheckpointIndependence(t *testing.T) {
	run := func(every int) []*SMRResult {
		points, err := RunThroughput(SMRConfig{N: 4, F: 1, CheckpointEvery: every, Seed: 5}, 32, []int{4}, []int{2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	off, on := run(0), run(4)
	for i := range off {
		if off[i].LogDigest != on[i].LogDigest || off[i].StateDigest != on[i].StateDigest {
			t.Fatalf("digests depend on checkpoint cadence:\n off: %+v\n on:  %+v", off[i], on[i])
		}
		if off[i].Entries != on[i].Entries {
			t.Fatalf("entry count depends on checkpoint cadence: %d vs %d", off[i].Entries, on[i].Entries)
		}
	}
}

// TestThroughputPipelinedRestartCatchup: the PR 5 kill/restart invariant
// must hold with batching and pipelining on — a victim revived empty
// catches up by state transfer and its digests match the log everyone else
// built.
func TestThroughputPipelinedRestartCatchup(t *testing.T) {
	cfg := RestartCatchupSpec(4, 32, 8, 9)
	cfg.Batch = 4
	cfg.Depth = 2
	res, err := RunSMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatalf("batched restart run exhausted its budget: %+v", res)
	}
	if res.VictimDown {
		t.Fatalf("victim never came back: %+v", res)
	}
	if res.Mismatches != 0 || res.DuplicateCommands != 0 {
		t.Fatalf("batched restart run diverged: mismatches=%d duplicates=%d", res.Mismatches, res.DuplicateCommands)
	}
	if res.Transfers == 0 {
		t.Fatalf("victim caught up without a state transfer (crash schedule too gentle): %+v", res)
	}
}

// TestThroughputFrontier runs the n=64 grid point the experiment table
// reports, gated like every frontier-size property.
func TestThroughputFrontier(t *testing.T) {
	if os.Getenv("REPRO_HARNESS_FULL") == "" {
		t.Skip("set REPRO_HARNESS_FULL=1 for frontier-size (n=64) throughput runs")
	}
	points, err := RunThroughput(SMRConfig{N: 64, F: 21, Seed: 3}, 32, []int{1, 16}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Mismatches != 0 || p.SubmitDropped != 0 || p.DuplicateCommands != 0 || p.Exhausted {
			t.Fatalf("unhealthy frontier point %+v", p)
		}
	}
	if points[1].EntriesPerKDeliveries() < 4*points[0].EntriesPerKDeliveries() {
		t.Fatalf("frontier batching win too small: %.3f vs %.3f entries/kdelivery",
			points[1].EntriesPerKDeliveries(), points[0].EntriesPerKDeliveries())
	}
}

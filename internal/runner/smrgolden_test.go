package runner

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// smrGolden is the absolute fingerprint of one RunSMR execution: what
// committed (the two digests) and what it cost on the simulator. Every
// other SMR test compares two runs to each other; these constants pin the
// runs themselves, so a refactor of the harness that moves a schedule, a
// victim or a seed derivation fails here even when it moves both sides of
// every relative comparison the same way.
type smrGolden struct {
	LogDigest, StateDigest uint64
	Messages, Deliveries   int
	EndTime                sim.Time
	// The log auditor's own verdicts (smraudit.go), so a change to when or
	// how it observes the logs cannot move one unnoticed.
	Entries, Mismatches, DuplicateCommands, VictimCommitted int
	FullStream                                              bool
	Committed                                               []int
}

func (g smrGolden) String() string {
	return fmt.Sprintf("{0x%016x, 0x%016x, %d, %d, %d, %d, %d, %d, %d, %v, %#v}",
		g.LogDigest, g.StateDigest, g.Messages, g.Deliveries, g.EndTime,
		g.Entries, g.Mismatches, g.DuplicateCommands, g.VictimCommitted, g.FullStream, g.Committed)
}

// smrGoldenConfigs is the pinned matrix: the five checkpoint-adversary
// scenarios and their attack-free controls at n=4, mac-forge at n=7
// (covering the uniform, reorder, straggler and split-heal schedules, with
// and without the restart victim), a common-coin checkpointed run with a crashed replica,
// and one coded, batched, pipelined run at n=7.
func smrGoldenConfigs() map[string]SMRConfig {
	cfgs := map[string]SMRConfig{
		"common/ckpt4/crashed1": {
			N: 4, F: 1, Slots: 16, Commands: 4, CheckpointEvery: 4,
			Coin: CoinCommon, crashed: 1, Seed: 21,
		},
		"n7/coded/batch4/depth2": {
			N: 7, F: 2, Slots: 12, Commands: 8, CommandBytes: 512,
			Batch: 4, Depth: 2, Coded: true, CheckpointEvery: 4, Seed: 22,
		},
	}
	for _, sc := range CkptScenarios() {
		n := 4
		if sc.Attack == adversary.CkptMACForge {
			// A forger that never casts a valid vote plus the dead victim is
			// two faults: over the bound at n=4 (no cut certifies, the victim
			// never returns, the run exhausts), within it at n=7.
			n = 7
		}
		cfgs[sc.Name] = sc.Spec(n, 24, 8, 3)
		cfgs[sc.Name+"/control"] = sc.Control(n, 24, 8, 3)
	}
	return cfgs
}

// goldenSMR was recorded at PR 11's head, before the run-kernel refactor;
// the verdict fields (from Entries on) at PR 15's parent, before the auditor
// stopped polling.
var goldenSMR = map[string]smrGolden{
	"common/ckpt4/crashed1":                {0x760405a018e81224, 0xad8e2cf2d80b4aef, 5560, 4147, 3353, 16, 0, 0, 0, true, []int{16, 16, 16}},
	"corrupt-responder/split-heal":         {0x427de104b674d97d, 0xad8e2cf2d80b4aef, 10284, 10239, 4858, 24, 0, 0, 8, true, []int{24, 24, 24, 24}},
	"corrupt-responder/split-heal/control": {0x427de104b674d97d, 0xad8e2cf2d80b4aef, 10250, 10213, 4854, 24, 0, 0, 8, true, []int{24, 24, 24, 24}},
	"cut-equivocate/restart":               {0x427de104b674d97d, 0xad8e2cf2d80b4aef, 10129, 10083, 4639, 24, 0, 0, 8, true, []int{24, 24, 24, 24}},
	"cut-equivocate/restart/control":       {0x427de104b674d97d, 0xad8e2cf2d80b4aef, 10234, 10191, 4586, 24, 0, 0, 8, true, []int{24, 24, 24, 24}},
	"future-spam/straggler":                {0x3143edeb740794bd, 0x1abed5e3667fffa1, 12825, 12649, 5777, 24, 0, 0, 0, true, []int{24, 24, 24, 24}},
	"future-spam/straggler/control":        {0x3143edeb740794bd, 0x1abed5e3667fffa1, 11768, 11694, 5817, 24, 0, 0, 0, true, []int{24, 24, 24, 24}},
	"mac-forge/reorder":                    {0x181fcc61e96a1a15, 0x4aefda9216c60a6e, 59172, 58902, 5004, 24, 0, 0, 16, true, []int{24, 24, 24, 24, 24, 24, 24}},
	"mac-forge/reorder/control":            {0x181fcc61e96a1a15, 0x4aefda9216c60a6e, 59042, 58785, 5035, 24, 0, 0, 16, true, []int{24, 24, 24, 24, 24, 24, 24}},
	"n7/coded/batch4/depth2":               {0x3ff0950aaeac43a9, 0x4241518ab8648b83, 31766, 31478, 1586, 48, 0, 0, 0, true, []int{12, 12, 12, 12, 12, 12, 12}},
	"stale-responder/restart":              {0x427de104b674d97d, 0xad8e2cf2d80b4aef, 10208, 10171, 4559, 24, 0, 0, 8, true, []int{24, 24, 24, 24}},
	"stale-responder/restart/control":      {0x427de104b674d97d, 0xad8e2cf2d80b4aef, 10234, 10191, 4586, 24, 0, 0, 8, true, []int{24, 24, 24, 24}},
}

func smrFingerprint(t *testing.T, cfg SMRConfig) smrGolden {
	t.Helper()
	res, err := RunSMR(cfg)
	if err != nil {
		t.Fatalf("RunSMR(%+v): %v", cfg, err)
	}
	if !res.FullStream || res.Mismatches != 0 || res.Exhausted {
		t.Fatalf("unhealthy run: full=%v mismatches=%d exhausted=%v", res.FullStream, res.Mismatches, res.Exhausted)
	}
	return smrGolden{res.LogDigest, res.StateDigest, res.Messages, res.Deliveries, res.EndTime,
		res.Entries, res.Mismatches, res.DuplicateCommands, res.VictimCommitted, res.FullStream, res.Committed}
}

// TestRunSMRGolden holds RunSMR to its recorded executions.
func TestRunSMRGolden(t *testing.T) {
	for name, cfg := range smrGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			got := smrFingerprint(t, cfg)
			want, ok := goldenSMR[name]
			if !ok {
				t.Fatalf("no golden for %q (got %v)", name, got)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RunSMR diverged from the recorded execution:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestRunSMRGoldenPrint regenerates the table with -run
// TestRunSMRGoldenPrint -v; it never fails.
func TestRunSMRGoldenPrint(t *testing.T) {
	cfgs := smrGoldenConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%q: %v,", name, smrFingerprint(t, cfgs[name]))
	}
}

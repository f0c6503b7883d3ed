package runner

import "testing"

// This file is the coded-dissemination equivalence battery: erasure-coded
// reliable broadcast replaces the dissemination wire format and nothing
// else, so every digest an uncoded run produces must reproduce bitwise under
// coding — through hostile schedules, checkpoint-plane attacks, and the
// restart/state-transfer path — while WireBytes is the one number allowed
// (required) to move.

// TestCodedSMRMatchesUncodedAcrossSchedules: the committed log is a pure
// function of (config minus Coded, seed) — reorder, straggler, and
// split-heal schedules included.
func TestCodedSMRMatchesUncodedAcrossSchedules(t *testing.T) {
	for _, sched := range []SchedulerKind{SchedUniform, SchedReorder, SchedStraggler, SchedSplitHeal} {
		t.Run(sched.String(), func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				base := SMRConfig{
					N: 8, F: 2,
					Slots: 12, Commands: 4, Batch: 3, Depth: 2,
					CheckpointEvery: 4,
					sched:           sched,
					Seed:            seed,
				}
				uncoded, err := RunSMR(base)
				if err != nil {
					t.Fatalf("seed %d: uncoded: %v", seed, err)
				}
				coded := base
				coded.Coded = true
				res, err := RunSMR(coded)
				if err != nil {
					t.Fatalf("seed %d: coded: %v", seed, err)
				}
				for _, r := range []*SMRResult{uncoded, res} {
					if r.Exhausted || r.Mismatches != 0 || !r.FullStream {
						t.Fatalf("seed %d coded=%v: exhausted=%v mismatches=%d full=%v",
							seed, r.Config.Coded, r.Exhausted, r.Mismatches, r.FullStream)
					}
				}
				if res.LogDigest != uncoded.LogDigest || res.StateDigest != uncoded.StateDigest {
					t.Errorf("seed %d: coded digests (%016x, %016x) != uncoded (%016x, %016x)",
						seed, res.LogDigest, res.StateDigest, uncoded.LogDigest, uncoded.StateDigest)
				}
			}
		})
	}
}

// TestCodedCkptScenariosMatchUncoded runs the full checkpoint-adversary
// battery in coded mode against the *uncoded* attack-free control: one
// equality crossing both the attack axis and the dissemination axis.
func TestCodedCkptScenariosMatchUncoded(t *testing.T) {
	n, slots, every := 8, 16, 4
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = []int64{1}
	}
	for _, sc := range CkptScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, seed := range seeds {
				control, err := RunSMR(sc.Control(n, slots, every, seed))
				if err != nil {
					t.Fatalf("seed %d: control: %v", seed, err)
				}
				cfg := sc.Spec(n, slots, every, seed)
				cfg.Coded = true
				res, err := RunSMR(cfg)
				if err != nil {
					t.Fatalf("seed %d: coded: %v", seed, err)
				}
				if res.Exhausted || res.Mismatches != 0 || !res.FullStream || res.SuffixDivergence != 0 {
					t.Fatalf("seed %d: exhausted=%v mismatches=%d full=%v divergence=%d",
						seed, res.Exhausted, res.Mismatches, res.FullStream, res.SuffixDivergence)
				}
				if sc.Restart && res.Transfers < 1 {
					t.Errorf("seed %d: coded victim installed no state transfer", seed)
				}
				if res.LogDigest != control.LogDigest || res.StateDigest != control.StateDigest {
					t.Errorf("seed %d: coded attack digests (%016x, %016x) != uncoded control (%016x, %016x)",
						seed, res.LogDigest, res.StateDigest, control.LogDigest, control.StateDigest)
				}
			}
		})
	}
}

// TestCodedRestartCatchup: a replica revived with empty state catches up by
// checkpoint state transfer while its peers disseminate in coded mode, and
// lands on the same digests as the uncoded restart run.
func TestCodedRestartCatchup(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		base := RestartCatchupSpec(4, 24, 4, seed)
		uncoded, err := RunSMR(base)
		if err != nil {
			t.Fatalf("seed %d: uncoded: %v", seed, err)
		}
		coded := base
		coded.Coded = true
		res, err := RunSMR(coded)
		if err != nil {
			t.Fatalf("seed %d: coded: %v", seed, err)
		}
		if res.Exhausted || res.Mismatches != 0 || !res.FullStream {
			t.Fatalf("seed %d: exhausted=%v mismatches=%d full=%v",
				seed, res.Exhausted, res.Mismatches, res.FullStream)
		}
		if res.Transfers < 1 || res.VictimCommitted < 3 {
			t.Errorf("seed %d: coded victim never caught up (transfers=%d committed=%d)",
				seed, res.Transfers, res.VictimCommitted)
		}
		if res.LogDigest != uncoded.LogDigest || res.StateDigest != uncoded.StateDigest {
			t.Errorf("seed %d: coded digests (%016x, %016x) != uncoded (%016x, %016x)",
				seed, res.LogDigest, res.StateDigest, uncoded.LogDigest, uncoded.StateDigest)
		}
	}
}

// TestCodedCutsWireBytes pins the bandwidth claim at a mid scale: with
// batch-sized bodies, coded dissemination cuts total wire bytes at least 3×
// against the uncoded run — total, including all the (uncoded, tiny)
// agreement traffic diluting the win.
func TestCodedCutsWireBytes(t *testing.T) {
	base := SMRConfig{
		N: 16, F: 5,
		Slots: 6, Commands: 4, CommandBytes: 2048, Batch: 4, Depth: 2,
		Seed: 1,
	}
	uncoded, err := RunSMR(base)
	if err != nil {
		t.Fatal(err)
	}
	coded := base
	coded.Coded = true
	res, err := RunSMR(coded)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogDigest != uncoded.LogDigest {
		t.Fatalf("digest mismatch: %016x vs %016x", res.LogDigest, uncoded.LogDigest)
	}
	if res.WireBytes <= 0 || uncoded.WireBytes <= 0 {
		t.Fatalf("wire meter never ran: coded %d, uncoded %d", res.WireBytes, uncoded.WireBytes)
	}
	if res.WireBytes*3 > uncoded.WireBytes {
		t.Errorf("coded %d bytes vs uncoded %d: want ≥3× reduction", res.WireBytes, uncoded.WireBytes)
	}
}

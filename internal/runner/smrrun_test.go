package runner

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// seedsUnderTest returns the scenario seed battery (shrunk under -short).
func seedsUnderTest(t *testing.T, n int) []int64 {
	t.Helper()
	if testing.Short() {
		n = 3
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// TestSMRCheckpointedRunMatchesUncheckpointed is the behaviour-neutrality
// acceptance gate of the checkpoint subsystem: at every interval tested,
// the committed log digest and the state-machine digest at the Slots
// boundary are byte-identical to the uncheckpointed run's — checkpoint
// votes, certification, residue release, and log truncation change traffic
// and memory, never what commits.
func TestSMRCheckpointedRunMatchesUncheckpointed(t *testing.T) {
	for _, seed := range seedsUnderTest(t, 6) {
		base, err := RunSMR(SMRConfig{N: 4, F: 1, Slots: 32, Commands: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !base.FullStream || base.Mismatches != 0 || base.Exhausted {
			t.Fatalf("seed %d: bad baseline run: %+v", seed, base)
		}
		for _, every := range []int{4, 8, 16} {
			res, err := RunSMR(SMRConfig{
				N: 4, F: 1, Slots: 32, Commands: 4, Seed: seed, CheckpointEvery: every,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.FullStream || res.Exhausted {
				t.Fatalf("seed %d every %d: stream gap or exhaustion", seed, every)
			}
			if res.Mismatches != 0 {
				t.Errorf("seed %d every %d: %d cross-replica log mismatches", seed, every, res.Mismatches)
			}
			if res.LogDigest != base.LogDigest {
				t.Errorf("seed %d every %d: log digest %x, uncheckpointed %x", seed, every, res.LogDigest, base.LogDigest)
			}
			if res.StateDigest != base.StateDigest {
				t.Errorf("seed %d every %d: state digest %x, uncheckpointed %x", seed, every, res.StateDigest, base.StateDigest)
			}
			if res.CertifiedCut == 0 {
				t.Errorf("seed %d every %d: no cut certified in 32 slots", seed, every)
			}
		}
	}
}

// TestRestartCatchupScenario is the state-transfer acceptance gate, run at
// every seed: a replica killed mid-run and revived with empty state — its
// peers' checkpoint long certified past anything it could replay — must
// install at least one certificate-verified transfer, rejoin, and commit
// slots itself, with every entry it commits identical to the cluster's.
func TestRestartCatchupScenario(t *testing.T) {
	for _, seed := range seedsUnderTest(t, 10) {
		res, err := RunSMR(RestartCatchupSpec(4, 48, 8, seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Exhausted {
			t.Fatalf("seed %d: delivery budget exhausted before catch-up (victim at %d/%d)",
				seed, res.VictimSlot, res.Config.Slots)
		}
		if res.Transfers < 1 {
			t.Errorf("seed %d: victim caught up without state transfer (transfers=0)", seed)
		}
		if res.VictimBase == 0 {
			t.Errorf("seed %d: victim never installed a certified base", seed)
		}
		if res.VictimCommitted < 3 {
			t.Errorf("seed %d: victim committed %d entries after revival, want ≥ 3", seed, res.VictimCommitted)
		}
		if res.Mismatches != 0 {
			t.Errorf("seed %d: %d log mismatches between the restarted replica and the cluster", seed, res.Mismatches)
		}
		if res.VictimSlot < res.Config.Slots {
			t.Errorf("seed %d: victim frontier %d below target %d", seed, res.VictimSlot, res.Config.Slots)
		}
	}
}

// TestRestartDeterminismProperty is the kill/restart determinism battery
// (mirroring the sweep kill/resume one): across seeds × crash points, a
// replica restarted from a certified checkpoint produces a log suffix and
// state digest bitwise identical to an uninterrupted run — proven by
// re-running the identical workload without the restart, stopped at the
// victim's final frontier, and comparing full-history digests.
func TestRestartDeterminismProperty(t *testing.T) {
	crashPoints := []int{120, 320, 640}
	if testing.Short() {
		crashPoints = crashPoints[:1]
	}
	for _, seed := range seedsUnderTest(t, 4) {
		for _, crashAfter := range crashPoints {
			cfg := RestartCatchupSpec(4, 40, 8, seed)
			cfg.Restart.CrashAfter = crashAfter
			restarted, err := RunSMR(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if restarted.Exhausted || restarted.Transfers < 1 {
				t.Fatalf("seed %d crash %d: scenario did not exercise transfer: %+v",
					seed, crashAfter, restarted)
			}
			// The victim's frontier is where we compare: an uninterrupted
			// run with the same rotation, stopped there.
			control := cfg
			control.Restart = nil
			control.spareRotation = true
			control.Slots = restarted.VictimSlot
			uninterrupted, err := RunSMR(control)
			if err != nil {
				t.Fatal(err)
			}
			if !uninterrupted.FullStream {
				t.Fatalf("seed %d crash %d: control run gapped", seed, crashAfter)
			}
			if restarted.VictimLogDigest != uninterrupted.LogDigest {
				t.Errorf("seed %d crash %d: victim log digest %x, uninterrupted %x",
					seed, crashAfter, restarted.VictimLogDigest, uninterrupted.LogDigest)
			}
			if restarted.VictimStateDigest != uninterrupted.StateDigest {
				t.Errorf("seed %d crash %d: victim state digest %x, uninterrupted %x",
					seed, crashAfter, restarted.VictimStateDigest, uninterrupted.StateDigest)
			}
		}
	}
}

// TestSMRRunIsDeterministic: RunSMR is a pure function of (config, seed),
// like everything else the harness runs.
func TestSMRRunIsDeterministic(t *testing.T) {
	cfg := RestartCatchupSpec(4, 32, 8, 7)
	a, err := RunSMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSMR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.LogDigest != b.LogDigest || a.Deliveries != b.Deliveries ||
		a.Messages != b.Messages || a.Transfers != b.Transfers ||
		a.VictimLogDigest != b.VictimLogDigest || a.VictimSlot != b.VictimSlot {
		t.Errorf("same (config, seed), different runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSMRCheckpointBoundsResidue: with checkpointing on, the end-of-run
// residue — RBC digest records, retained log entries, per-slot dealers — is
// bounded by O(window + interval), not O(slots); without it, it grows with
// the log. This is the memory claim E12 tabulates, asserted here at a fixed
// bound so CI catches regressions without running the experiment.
func TestSMRCheckpointBoundsResidue(t *testing.T) {
	const slots, every, n = 96, 8, 4
	with, err := RunSMR(SMRConfig{
		N: n, F: 1, Slots: slots, Commands: 4, Seed: 5,
		CheckpointEvery: every, Coin: CoinCommon,
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunSMR(SMRConfig{
		N: n, F: 1, Slots: slots, Commands: 4, Seed: 5, Coin: CoinCommon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if with.Exhausted || without.Exhausted {
		t.Fatal("residue workload exhausted its budget")
	}
	// Uncheckpointed: one digest record per committed slot per replica, one
	// dealer per slot, the whole log retained.
	if without.RBCRecords < n*(slots-2) {
		t.Errorf("uncheckpointed RBC records = %d, want ≥ %d", without.RBCRecords, n*(slots-2))
	}
	if without.LogRetained < n*slots {
		t.Errorf("uncheckpointed retained log = %d, want ≥ %d", without.LogRetained, n*slots)
	}
	if without.DealerSlots < slots {
		t.Errorf("uncheckpointed dealers = %d, want ≥ %d", without.DealerSlots, slots)
	}
	// Checkpointed: everything below the certified cut is gone. Each
	// replica may retain up to ~2 intervals (its own frontier past the last
	// certified cut) plus in-flight slots; 4 intervals per replica is a
	// generous fixed bound that an unbounded retainer blows through
	// immediately at 96 slots.
	bound := n * 4 * every
	if with.RBCRecords > bound {
		t.Errorf("checkpointed RBC records = %d, want ≤ %d", with.RBCRecords, bound)
	}
	if with.LogRetained > bound {
		t.Errorf("checkpointed retained log = %d, want ≤ %d", with.LogRetained, bound)
	}
	if with.DealerSlots > 4*every {
		t.Errorf("checkpointed dealers = %d, want ≤ %d", with.DealerSlots, 4*every)
	}
	if with.CertifiedCut < slots-2*every {
		t.Errorf("certified cut %d lags the frontier %d by more than two intervals", with.CertifiedCut, slots)
	}
	// And the run is still the same run.
	if with.LogDigest != without.LogDigest || with.StateDigest != without.StateDigest {
		t.Error("residue workload digests diverged between checkpointed and not")
	}
}

// TestCommandsForMatchesSprintf holds the preloaded workload to the
// commands the fmt.Sprintf-and-strings.Repeat form built, byte for byte,
// unpadded and padded (including lengths the padding does not reach and
// process and command numbers of several digits), and holds one replica's
// commands to two allocations, the slice and the one string they are
// substrings of, whatever their count.
func TestCommandsForMatchesSprintf(t *testing.T) {
	for _, tt := range []struct {
		p                      types.ProcessID
		commands, commandBytes int
	}{
		{1, 0, 0}, {1, 3, 0}, {7, 12, 0}, {16, 120, 0},
		{2, 5, 10}, {3, 11, 14}, {16, 130, 2048}, {123, 1001, 40},
	} {
		r := &smrRun{cfg: SMRConfig{Commands: tt.commands, CommandBytes: tt.commandBytes}}
		got := r.commandsFor(tt.p)
		if len(got) != tt.commands {
			t.Fatalf("p%d: %d commands, want %d", tt.p, len(got), tt.commands)
		}
		for c, cmd := range got {
			want := fmt.Sprintf("set k%d-%d v%d-%d", tt.p, c, tt.p, c)
			if pad := tt.commandBytes - len(want); pad > 0 {
				want += strings.Repeat("x", pad)
			}
			if cmd != want {
				t.Fatalf("p%d command %d of %d bytes = %q, want %q", tt.p, c, tt.commandBytes, cmd, want)
			}
		}
		if tt.commands == 0 {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { r.commandsFor(tt.p) }); allocs != 2 {
			t.Errorf("p%d, %d commands of %d bytes: %.0f allocations, want 2", tt.p, tt.commands, tt.commandBytes, allocs)
		}
	}
}

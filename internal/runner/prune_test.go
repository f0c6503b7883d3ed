package runner

// Pruning tests at the harness level: the straggler catch-up scenario
// (totality after RBC instances were pruned at every peer) and the dealer's
// cluster low-watermark.

import "testing"

// TestStragglerCatchUpAfterRBCPrune is the catch-up half of the pruning
// contract, asserted at every seed: one correct node runs rounds behind a
// free-running pack (continuous inbound lag, spare fault slot, non-halting
// formulation), so by the time its traffic lands, the pack has compacted
// the RBC instances of those rounds to delivered records — and the
// straggler must still decide (RBC totality feeding consensus termination),
// with no property violated. The compaction counter proves the pruning
// actually happened before the catch-up at every seed.
func TestStragglerCatchUpAfterRBCPrune(t *testing.T) {
	sc, err := ScenarioByName("straggler-prune")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.SweepSpec(8, -1, SeedRange{From: 1, To: 9})
	if err != nil {
		t.Fatal(err)
	}
	for seed := spec.Seeds.From; seed < spec.Seeds.To; seed++ {
		cfg := spec.Cfg
		cfg.Seed = seed
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("seed %d: %v", seed, res.Violations)
		}
		if !res.AllDecided {
			t.Errorf("seed %d: the straggler (or a pack node) failed to decide after its RBC instances were pruned", seed)
		}
		if res.RBCCompacted == 0 {
			t.Errorf("seed %d: no RBC instance was compacted — the scenario did not exercise catch-up", seed)
		}
		if res.Exhausted {
			t.Errorf("seed %d: delivery budget exhausted", seed)
		}
	}
}

// TestDealerLowWatermarkBoundsRetention: under the common coin, the runner's
// cluster low-watermark keeps the dealer's memoized sharings bounded by the
// cluster round spread, not the rounds run. The pinned (scenario, seed) —
// liar-partition at n=8, seed 2 — decides in round 4, long enough that a
// dealer without the scan would still hold every dealt round.
func TestDealerLowWatermarkBoundsRetention(t *testing.T) {
	sc, err := ScenarioByName("liar-partition")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.SweepSpec(8, -1, SeedRange{From: 2, To: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Cfg
	cfg.Seed = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRound < 4 {
		t.Fatalf("the pinned run reached round %d — too short to test the watermark", res.MaxRound)
	}
	if res.DealerRoundsRetained > 2 {
		t.Errorf("dealer retained %d rounds after a %d-round run, want ≤ 2", res.DealerRoundsRetained, res.MaxRound)
	}
}

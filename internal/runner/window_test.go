package runner

// Windowing tests at the harness level: the straggler catch-up scenario
// (totality after RBC instances were pruned at every peer) and the
// aggregate-equality statement (sweep aggregates are bitwise identical with
// and without windowing, at any window size).

import (
	"encoding/json"
	"testing"
)

// TestStragglerCatchUpAfterRBCPrune is the catch-up half of the windowing
// contract, asserted at every seed: one correct node runs rounds behind a
// free-running pack (continuous inbound lag, spare fault slot, non-halting
// formulation), so by the time its traffic lands, the pack has compacted
// the RBC instances of those rounds to delivered records — and the
// straggler must still decide (RBC totality feeding consensus termination),
// with no property violated. At the default window (1, the invariant's
// tightest) the compaction counter proves the pruning actually happened
// before the catch-up at every seed; the wider window is additionally held
// to the same properties (its floor trails further back, so whether any
// round falls below it depends on how far the pack free-runs).
func TestStragglerCatchUpAfterRBCPrune(t *testing.T) {
	sc, err := ScenarioByName("straggler-prune")
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 2} {
		spec, err := PropertySpec{N: 8, F: -1, Scenario: sc,
			Seeds: SeedRange{From: 1, To: 9}, Window: window}.SweepSpec()
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
				t.Fatalf("window %d seed %d: %v", window, seed, res.Violations)
			}
			if !res.AllDecided {
				t.Errorf("window %d seed %d: the straggler (or a pack node) failed to decide after its RBC instances were pruned", window, seed)
			}
			if window == 1 && res.RBCCompacted == 0 {
				t.Errorf("seed %d: no RBC instance was compacted — the scenario did not exercise catch-up", seed)
			}
			if res.Exhausted {
				t.Errorf("window %d seed %d: delivery budget exhausted", window, seed)
			}
		}
	}
}

// TestWindowedSweepAggregatesIdentical is the aggregate half of the
// windowing contract, the in-process version of the CI bench diff: one
// scenario swept at window 1, window 4, a non-default dealer low-watermark
// cadence, and with pruning disabled entirely must produce byte-identical
// aggregates — windowing releases only provably dead state, so nothing any
// reducer sees can move.
func TestWindowedSweepAggregatesIdentical(t *testing.T) {
	sc, err := ScenarioByName("straggler-prune")
	if err != nil {
		t.Fatal(err)
	}
	seeds := SeedRange{From: 1, To: 9}
	marshal := func(p PropertySpec) string {
		t.Helper()
		agg, err := PropertySweep(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(agg)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := marshal(PropertySpec{N: 8, F: -1, Scenario: sc, Seeds: seeds, Workers: 2})
	variants := map[string]PropertySpec{
		"window=4":       {N: 8, F: -1, Scenario: sc, Seeds: seeds, Workers: 2, Window: 4},
		"lowwater-every": {N: 8, F: -1, Scenario: sc, Seeds: seeds, Workers: 2, LowWatermarkEvery: 64},
		"no-prune":       {N: 8, F: -1, Scenario: sc, Seeds: seeds, Workers: 2, DisablePruning: true},
	}
	for name, p := range variants {
		if got := marshal(p); got != base {
			t.Errorf("%s: aggregate diverged from the default-window sweep\n got: %s\nwant: %s", name, got, base)
		}
	}
}

// TestDealerLowWatermarkBoundsRetention: under the common coin, the runner's
// cluster low-watermark keeps the dealer's memoized sharings bounded by the
// cluster round spread instead of the rounds run, with disabling pruning as
// the retain-everything control. The pinned (scenario, seed) is a
// deterministic four-round execution (liar-partition, seed 2): long enough
// that the watermark demonstrably releases dealt rounds, short enough for
// the default suite. The frequent-scan cadence sharpens the bound without
// moving behaviour (the aggregate-equality test holds the cadence knob to
// that).
func TestDealerLowWatermarkBoundsRetention(t *testing.T) {
	sc, err := ScenarioByName("liar-partition")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := PropertySpec{N: 8, F: -1, Scenario: sc,
		Seeds: SeedRange{From: 2, To: 3}, LowWatermarkEvery: 64}.SweepSpec()
	if err != nil {
		t.Fatal(err)
	}
	base := spec.Cfg
	base.Seed = 2
	pruned, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	unprunedCfg := base
	unprunedCfg.DisablePruning = true
	unpruned, err := Run(unprunedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if unpruned.DealerRoundsRetained < 4 {
		t.Fatalf("control run dealt only %d rounds — the pinned seed no longer runs long enough to test the watermark", unpruned.DealerRoundsRetained)
	}
	if pruned.DealerRoundsRetained >= unpruned.DealerRoundsRetained {
		t.Errorf("low-watermark retained %d dealer rounds, unpruned %d — nothing was released",
			pruned.DealerRoundsRetained, unpruned.DealerRoundsRetained)
	}
	// Behaviour equality on the side: same deliveries, decisions, rounds.
	if pruned.Deliveries != unpruned.Deliveries || pruned.MaxRound != unpruned.MaxRound {
		t.Errorf("dealer pruning changed the execution: %d/%d deliveries, %d/%d max round",
			pruned.Deliveries, unpruned.Deliveries, pruned.MaxRound, unpruned.MaxRound)
	}
}

package runner

import "testing"

// TestSchedulerFamiliesLiveness runs every scheduler family — including the
// parameterized lossy, topology, and adaptive families — at n=16 across a
// seed block: each run must decide within budget with zero violations. This
// is the liveness floor for the zoo; the search in internal/search hunts for
// parameter points that break it, and anything it finds gets pinned in
// Scenarios().
func TestSchedulerFamiliesLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness sweep")
	}
	families := []SchedulerKind{
		SchedUniform, SchedFIFO, SchedRushByz, SchedPartition, SchedReorder,
		SchedSplitHeal, SchedRejoin, SchedStraggler,
		SchedLossy, SchedTopology, SchedAdaptive, SchedAdaptiveRush,
	}
	const n, seeds = 16, 6
	for _, sched := range families {
		sched := sched
		t.Run(sched.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= seeds; seed++ {
				cfg := Config{
					N: n, F: (n - 1) / 3, Byzantine: -1,
					Protocol:      ProtocolBracha,
					Coin:          CoinCommon,
					Adversary:     AdvEquivocator,
					Scheduler:     sched,
					Inputs:        InputSplit,
					Seed:          seed,
					MaxDeliveries: deliveryBudget(n) * 4,
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(res.Violations) > 0 {
					t.Fatalf("seed %d: violations %v", seed, res.Violations)
				}
				if !res.AllDecided || res.Exhausted {
					t.Fatalf("seed %d: decided=%v exhausted=%v (deliveries=%d)",
						seed, res.AllDecided, res.Exhausted, res.Deliveries)
				}
			}
		})
	}
}

// TestAdaptiveAdversarySlower pins the adaptive adversary's teeth: on the
// same configuration and seed block, targeting delay at the decision
// frontier must cost strictly more rounds-to-decide (summed over the block)
// than spreading the same base delay uniformly. If this ever fails, the
// adaptive scheduler has degenerated into noise.
func TestAdaptiveAdversarySlower(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness sweep")
	}
	const n, seeds = 8, 16
	total := func(sched SchedulerKind) float64 {
		var sum float64
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := Config{
				N: n, F: (n - 1) / 3, Byzantine: -1,
				Protocol:      ProtocolBracha,
				Coin:          CoinCommon,
				Adversary:     AdvLiar,
				Scheduler:     sched,
				Inputs:        InputRandom,
				Seed:          seed,
				MaxDeliveries: deliveryBudget(n) * 8,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v seed %d: %v", sched, seed, err)
			}
			if !res.AllDecided || res.Exhausted {
				t.Fatalf("%v seed %d: decided=%v exhausted=%v", sched, seed, res.AllDecided, res.Exhausted)
			}
			sum += res.MeanRounds
		}
		return sum
	}
	uniform := total(SchedUniform)
	adaptive := total(SchedAdaptiveRush)
	t.Logf("rounds-to-decide over %d seeds: uniform=%.2f adaptive-rush=%.2f", seeds, uniform, adaptive)
	if adaptive <= uniform {
		t.Errorf("adaptive adversary is not slower: uniform=%.2f adaptive-rush=%.2f", uniform, adaptive)
	}
}

// TestAdaptiveCliffSlowerThanReorder is the regression pin for the searched
// cliff scenario: over a seed block at n=8, the "adaptive-cliff" schedule
// (the adaptive family's grid summit, TargetLag=480) must cost strictly more
// rounds-to-decide than the pre-existing "reorder" scenario — the two share
// the liar adversary, common coin, and random inputs, so the scheduler is
// the only variable. Both must stay clean: every run decides, zero
// violations. If the cliff ever flattens below reorder, either the adaptive
// scheduler regressed or the searched point went stale — re-run
// `bench search -family adaptive` and re-pin.
func TestAdaptiveCliffSlowerThanReorder(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness sweep")
	}
	const n = 8
	seeds := SeedRange{From: 1, To: 33}
	sweep := func(name string) float64 {
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := PropertySweep(PropertySpec{N: n, F: -1, Scenario: sc, Seeds: seeds})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !agg.Checks.Clean() {
			t.Fatalf("%s: violations %+v", name, agg.Checks)
		}
		if agg.Decided != agg.Runs {
			t.Fatalf("%s: decided %d of %d runs", name, agg.Decided, agg.Runs)
		}
		return agg.Rounds.Summary().Mean
	}
	reorder := sweep("reorder")
	cliff := sweep("adaptive-cliff")
	t.Logf("mean rounds over seeds %v at n=%d: reorder=%.3f adaptive-cliff=%.3f", seeds, n, reorder, cliff)
	if cliff <= reorder {
		t.Errorf("searched cliff is not a cliff: reorder=%.3f adaptive-cliff=%.3f", reorder, cliff)
	}
}

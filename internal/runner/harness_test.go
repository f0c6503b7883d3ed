package runner

import (
	"os"
	"testing"
)

// sweepScenario runs scenario sc at size n, optimal resilience, across
// seeds on a pool of workers (0 = GOMAXPROCS).
func sweepScenario(sc Scenario, n int, seeds SeedRange, workers int) (*Aggregate, error) {
	spec, err := sc.SweepSpec(n, -1, seeds)
	if err != nil {
		return nil, err
	}
	spec.Workers = workers
	return SweepSeedRange(spec)
}

// assertClean fails the test if a property sweep observed any violation,
// undecided run, or exhausted budget.
func assertClean(t *testing.T, label string, sc Scenario, agg *Aggregate) {
	t.Helper()
	if !agg.Checks.Clean() {
		t.Errorf("%s: %v", label, agg.Checks.String())
	}
	if !sc.RBC && agg.Decided != agg.Runs {
		t.Errorf("%s: only %d/%d runs fully decided", label, agg.Decided, agg.Runs)
	}
	if agg.Exhausted > 0 {
		t.Errorf("%s: %d runs exhausted their delivery budget", label, agg.Exhausted)
	}
}

func TestScenarioByName(t *testing.T) {
	sc, err := ScenarioByName("crash-rejoin")
	if err != nil || sc.Adversary != AdvCrashMidway || sc.Scheduler != SchedRejoin {
		t.Errorf("crash-rejoin = %+v, err %v", sc, err)
	}
	if _, err := ScenarioByName("no-such-attack"); err == nil {
		t.Error("unknown scenario accepted")
	}
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Doc == "" {
			t.Errorf("scenario %+v missing name or doc", sc)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
}

// TestStragglerScenarioExercisesPruning proves the straggler-prune scenario
// does what its doc claims: across a seed spread, the advanced processes
// actually receive and drop justified messages for rounds they already
// released — the late-drop edge case the per-round pruning invariant is
// about — while every property still holds (the battery sweep asserts that
// part; here we assert the drops happen at all).
func TestStragglerScenarioExercisesPruning(t *testing.T) {
	sc, err := ScenarioByName("straggler-prune")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.SweepSpec(8, -1, SeedRange{From: 1, To: 9})
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
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
		drops += res.PrunedLate
	}
	if drops == 0 {
		t.Error("straggler-prune never dropped a late message for a pruned round across the seed spread")
	}
}

// TestScenariosHoldSmall: every scenario in the battery must hold all
// properties at optimal resilience on small systems, across a seed spread.
func TestScenariosHoldSmall(t *testing.T) {
	seeds := SeedRange{From: 1, To: 17}
	if testing.Short() {
		seeds.To = 5
	}
	for _, sc := range Scenarios() {
		for _, n := range []int{8, 13} {
			agg, err := sweepScenario(sc, n, seeds, 4)
			if err != nil {
				t.Fatalf("%s n=%d: %v", sc.Name, n, err)
			}
			if agg.Runs != seeds.Len() {
				t.Fatalf("%s n=%d: %d runs, want %d", sc.Name, n, agg.Runs, seeds.Len())
			}
			assertClean(t, sc.Name, sc, agg)
		}
	}
}

// TestHarnessFrontier: the harness at the n=64/128 frontier the ROADMAP
// targets — full RBC battery at both sizes, plus consensus spot checks at
// n=64 (the full-depth frontier run lives in TestHarnessFullScale).
func TestHarnessFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n frontier sweep")
	}
	for _, sc := range Scenarios() {
		if !sc.RBC {
			continue
		}
		for _, n := range []int{64, 128} {
			seeds := SeedRange{From: 1, To: 41}
			agg, err := sweepScenario(sc, n, seeds, 0)
			if err != nil {
				t.Fatalf("%s n=%d: %v", sc.Name, n, err)
			}
			assertClean(t, sc.Name, sc, agg)
		}
	}
	for _, name := range []string{"equivocation-rush", "crash-rejoin"} {
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := sweepScenario(sc, 64, SeedRange{From: 1, To: 3}, 0)
		if err != nil {
			t.Fatalf("%s n=64: %v", name, err)
		}
		assertClean(t, name+" n=64", sc, agg)
	}
}

// TestHarnessFullScale is the acceptance-depth run: the full scenario
// battery at n=64 and n=128 across 1000 seeds each, streamed with O(1)
// memory. It takes hours on a single core, so it is gated behind
// REPRO_HARNESS_FULL=1; the same sweeps are reachable incrementally (with
// checkpoint/resume) through `bench sweep`, which is the recommended way to
// run them.
func TestHarnessFullScale(t *testing.T) {
	if os.Getenv("REPRO_HARNESS_FULL") == "" {
		t.Skip("set REPRO_HARNESS_FULL=1 to run the full-depth frontier sweep")
	}
	seeds := SeedRange{From: 1, To: 1001}
	for _, sc := range Scenarios() {
		for _, n := range []int{64, 128} {
			spec, err := sc.SweepSpec(n, -1, seeds)
			if err != nil {
				t.Fatal(err)
			}
			spec.Progress = func(done, total int64) {
				if done%100 == 0 {
					t.Logf("%s n=%d: %d/%d", sc.Name, n, done, total)
				}
			}
			agg, err := SweepSeedRange(spec)
			if err != nil {
				t.Fatalf("%s n=%d: %v", sc.Name, n, err)
			}
			assertClean(t, sc.Name, sc, agg)
			t.Logf("%s n=%d: %s", sc.Name, n, agg.Checks.String())
		}
	}
}

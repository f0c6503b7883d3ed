package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/runner"
)

// E10PropertyHarness regenerates Table 6: the adversarial property harness —
// every scenario of runner.Scenarios() swept across seeds through the
// streaming engine, at the n=64/128 frontier in full mode. The shape to
// verify: zero violations and full termination in every cell; this is the
// adversarial-schedule evidence behind the repository's safety claims at
// sizes the buffered sweeps of E2 never reached. Consensus runs at n=128
// cost seconds each, so their seed count is capped; `bench sweep` resumes
// the same sweeps to arbitrary depth with checkpoints.
func E10PropertyHarness(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E10 / Table 6 — adversarial property harness (streaming sweeps)",
		"scenario", "kind", "n", "f", "seeds", "violations", "undecided", "exhausted", "mean msgs", "mean rounds")

	sizes := []int{64, 128}
	if o.Quick {
		sizes = []int{16}
	}
	for _, sc := range runner.Scenarios() {
		for _, n := range sizes {
			seeds := int64(o.Runs)
			if !sc.RBC {
				// Consensus frontier runs are expensive; cap the depth the
				// table regenerates per cell.
				switch {
				case n >= 128:
					seeds = min(seeds, 2)
				case n >= 64:
					seeds = min(seeds, 8)
				}
			}
			spec, err := sc.SweepSpec(n, -1, runner.SeedRange{From: o.Seed, To: o.Seed + seeds})
			if err != nil {
				return nil, fmt.Errorf("scenario %s n=%d: %w", sc.Name, n, err)
			}
			spec.Workers = o.Workers
			agg, err := runner.SweepSeedRange(spec)
			if err != nil {
				return nil, fmt.Errorf("scenario %s n=%d: %w", sc.Name, n, err)
			}
			kind := "consensus"
			undecided := agg.Runs - agg.Decided
			if sc.RBC {
				kind = "rbc"
				undecided = 0
			}
			t.AddRowf(sc.Name, kind, n, quorum.MaxByzantine(n), fmt.Sprint(agg.Runs),
				fmt.Sprint(agg.Checks.Violations), fmt.Sprint(undecided), fmt.Sprint(agg.Exhausted),
				agg.Messages.Mean, agg.Rounds.Mean)
		}
	}
	return t, nil
}

package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TelemetryFamily is one scheduler family of the telemetry comparison:
// everything but the schedule (adversary, coin, inputs) is held fixed, so
// the per-kind and per-phase numbers isolate what the schedule itself costs.
type TelemetryFamily struct {
	Name      string
	Scheduler runner.SchedulerKind
	Sched     runner.SchedParams
}

// TelemetryFamilies returns the three schedules E16 (and `bench telemetry`)
// compares: fair uniform delays, adversarial newest-first reordering, and
// the searched adaptive-cliff summit (the liveness cliff pinned by the
// adaptive-cliff harness scenario; see internal/search).
func TelemetryFamilies() []TelemetryFamily {
	return []TelemetryFamily{
		{Name: "uniform", Scheduler: runner.SchedUniform},
		{Name: "reorder", Scheduler: runner.SchedReorder},
		{Name: "adaptive-cliff", Scheduler: runner.SchedAdaptiveRush,
			Sched: runner.SchedParams{TargetLag: 480}},
	}
}

// TelemetryConfig builds the family's run config: Bracha with a liar
// adversary at optimal resilience, common coin, random inputs — the same
// setup as the reorder and adaptive-cliff harness scenarios, so the only
// independent variable across families is the schedule.
func TelemetryConfig(fam TelemetryFamily, n int, seed int64) runner.Config {
	return runner.Config{
		N: n, F: quorum.MaxByzantine(n),
		Protocol:      runner.ProtocolBracha,
		Coin:          runner.CoinCommon,
		Adversary:     runner.AdvLiar,
		Scheduler:     fam.Scheduler,
		Sched:         fam.Sched,
		Inputs:        runner.InputRandom,
		MaxDeliveries: runner.DeliveryBudget(n),
		Seed:          seed,
		Telemetry:     true,
	}
}

// E16Telemetry regenerates Table 12: where the time and bandwidth of a run
// actually go, per scheduler family. Each family sweeps the same seeds with
// the telemetry plane attached (per-kind wire counters and latency
// histograms, protocol phase histograms), merges the per-run sinks in index
// order — bitwise worker-count independent, since the integer merge is
// exactly associative and commutative — and adds one traced run whose
// decision critical paths (internal/obs) attribute decision time to wire
// versus handler ("think") hops.
//
// The shape to verify: "reorder" and "adaptive-cliff" run the identical
// adversary, coin, and inputs, yet the cliff costs strictly more rounds.
// The phase columns say why — the adaptive schedule stretches the
// round-decide phase (it lags exactly the traffic the frontier process
// needs) while the per-hop wire latencies stay comparable; chaos alone
// (reorder) barely moves either. The wire-share column shows decisions are
// wire-dominated in every family: the protocol thinks for free and waits
// for quorums.
//
// Columns:
//
//   - rounds: mean decision round over the sweep;
//   - msgs / dropped / wire B: merged per-kind totals (dropped counts
//     scheduler drops plus messages expiring at finished processes);
//   - top kind: the payload kind carrying the most bytes;
//   - decide p50/p99: the round-entry → decision phase histogram, in sim
//     ticks, over every decision of every run;
//   - deliver p99: queue-to-delivery wire latency across all kinds;
//   - hops: mean critical-path length of the traced run's decisions;
//   - crit t: mean decision time on those critical paths, in sim ticks.
//     (The wire/think decomposition the paths also carry is degenerate
//     here by construction — handlers execute in zero sim time, so wire
//     is 100% of every path; obs's tests pin the identity.)
func E16Telemetry(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E16 / Table 12 — telemetry plane: per-kind wire costs, phase latencies, critical paths",
		"family", "n", "runs", "rounds", "msgs", "dropped", "wire B",
		"top kind", "decide p50", "decide p99", "deliver p99", "hops", "crit t")
	n := 16
	if o.Quick {
		n = 8
	}
	for _, fam := range TelemetryFamilies() {
		cfg := TelemetryConfig(fam, n, 0)
		results, err := o.sweepSeeds(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: E16 %s: %w", fam.Name, err)
		}
		merged := sim.NewTelemetry()
		var roundSum float64
		var msgs, dropped int
		var wireBytes int64
		for _, r := range results {
			if len(r.Violations) > 0 || !r.AllDecided {
				return nil, fmt.Errorf("experiments: E16 %s seed %d: violations=%d allDecided=%v",
					fam.Name, r.Config.Seed, len(r.Violations), r.AllDecided)
			}
			merged.Merge(r.Telemetry)
			roundSum += r.MeanRounds
			msgs += r.Messages
			dropped += r.Dropped
			wireBytes += r.WireBytes
		}
		// Queue-to-delivery latency across every kind: merge the per-kind
		// histograms (exact — integer buckets).
		var wireLat metrics.Hist
		for k := range merged.Kinds {
			wireLat.Merge(merged.Kinds[k].Latency)
		}
		topKind := "-"
		if top := merged.TopKindsByBytes(1); len(top) > 0 {
			topKind = top[0]
		}
		decide := &merged.Phases[sim.PhaseRoundDecide]

		// One traced run attributes decision time to wire vs think hops.
		tcfg := TelemetryConfig(fam, n, o.Seed)
		tcfg.Telemetry = false
		tcfg.Trace = true
		traced, err := runner.Run(tcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: E16 %s traced: %w", fam.Name, err)
		}
		report := obs.Analyze(traced.Recorder.Events())
		var hops int
		for _, d := range report.Decisions {
			hops += d.Hops
		}
		meanHops := 0.0
		if len(report.Decisions) > 0 {
			meanHops = float64(hops) / float64(len(report.Decisions))
		}

		t.AddRowf(fam.Name, n, len(results),
			fmt.Sprintf("%.2f", roundSum/float64(len(results))),
			msgs, dropped, wireBytes, topKind,
			decide.Quantile(0.50), decide.Quantile(0.99),
			wireLat.Quantile(0.99),
			fmt.Sprintf("%.1f", meanHops),
			fmt.Sprintf("%.1f", report.MeanDecisionTime()))
	}
	return t, nil
}

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
// the searched adaptive-cliff summit, read from the adaptive-cliff harness
// scenario that pins the liveness cliff (see internal/search).
func TelemetryFamilies() []TelemetryFamily {
	cliff, err := runner.ScenarioByName("adaptive-cliff")
	if err != nil {
		panic(err) // a fixed entry of runner's scenario table
	}
	return []TelemetryFamily{
		{Name: "uniform", Scheduler: runner.SchedUniform},
		{Name: "reorder", Scheduler: runner.SchedReorder},
		{Name: cliff.Name, Scheduler: cliff.Scheduler, Sched: cliff.Sched},
	}
}

// telemetryConfig builds the family's run config: Bracha with a liar
// adversary at optimal resilience, common coin, random inputs — the same
// setup as the reorder and adaptive-cliff harness scenarios, so the only
// independent variable across families is the schedule.
func telemetryConfig(fam TelemetryFamily, n int, seed int64) runner.Config {
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

// SweepTelemetry runs family fam at n processes and f assumed faults over
// the seeds seed, seed+1, … (runs of them, on workers workers) with the
// telemetry plane attached, and refuses a run with a property violation (an
// undecided process is one: a termination violation). It returns the runs'
// counters summed, EndTime apart, with Telemetry the per-run sinks merged
// in index order — bitwise worker-count independent, since the integer
// merge is exactly associative and commutative — and the mean over runs of
// each run's mean decision round.
func SweepTelemetry(fam TelemetryFamily, n, f, runs int, seed int64, workers int) (sum runner.SimStats, meanRounds float64, err error) {
	cfgs := make([]runner.Config, runs)
	for i := range cfgs {
		cfgs[i] = telemetryConfig(fam, n, seed+int64(i))
		cfgs[i].F = f
	}
	results, err := runner.Sweep(cfgs, workers, runner.Run)
	if err != nil {
		return sum, 0, fmt.Errorf("experiments: telemetry family %s: %w", fam.Name, err)
	}
	sum.Telemetry = sim.NewTelemetry()
	var roundSum float64
	for _, r := range results {
		if len(r.Violations) > 0 {
			return sum, 0, fmt.Errorf("experiments: telemetry family %s seed %d: %d property violations",
				fam.Name, r.Config.Seed, len(r.Violations))
		}
		sum.Telemetry.Merge(r.Telemetry)
		roundSum += r.MeanRounds
		sum.Messages += r.Messages
		sum.Deliveries += r.Deliveries
		sum.Dropped += r.Dropped
		sum.Spoofed += r.Spoofed
		sum.WireBytes += r.WireBytes
	}
	return sum, roundSum / float64(len(results)), nil
}

// e16Telemetry regenerates Table 12: where the time and bandwidth of a run
// actually go, per scheduler family. Each family sweeps the same seeds with
// the telemetry plane attached (per-kind wire counters and latency
// histograms, protocol phase histograms; see SweepTelemetry) and adds one
// traced run whose decision critical paths (internal/obs) attribute
// decision time to wire versus handler ("think") hops.
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
func e16Telemetry(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"E16 / Table 12 — telemetry plane: per-kind wire costs, phase latencies, critical paths",
		"family", "n", "runs", "rounds", "msgs", "dropped", "wire B",
		"top kind", "decide p50", "decide p99", "deliver p99", "hops", "crit t")
	n := 16
	if o.Quick {
		n = 8
	}
	fams := TelemetryFamilies()
	rounds := make([]float64, len(fams))
	for i, fam := range fams {
		sum, meanRounds, err := SweepTelemetry(fam, n, quorum.MaxByzantine(n), o.Runs, o.Seed, o.Workers)
		if err != nil {
			return nil, err
		}
		rounds[i] = meanRounds
		merged := sum.Telemetry
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
		tcfg := telemetryConfig(fam, n, o.Seed)
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

		t.AddRowf(fam.Name, n, o.Runs,
			fmt.Sprintf("%.2f", meanRounds),
			sum.Messages, sum.Dropped, sum.WireBytes, topKind,
			decide.Quantile(0.50), decide.Quantile(0.99),
			wireLat.Quantile(0.99),
			fmt.Sprintf("%.1f", meanHops),
			fmt.Sprintf("%.1f", report.MeanDecisionTime()))
	}
	// fams is uniform, reorder, adaptive-cliff; SweepTelemetry has already
	// refused any run with a violation.
	var bad refutation
	bad.check(rounds[2] > rounds[1], "%s reads %.2f mean rounds, %s %.2f",
		fams[2].Name, rounds[2], fams[1].Name, rounds[1])
	return t, bad.err()
}

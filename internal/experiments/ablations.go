package experiments

import (
	"repro/internal/metrics"
	"repro/internal/runner"
)

// a1Validation regenerates ablation A1: message validation on versus off
// under the liar adversary. Expected shape: with validation, runs stay
// clean; without it, liar traffic is counted at face value and runs slow
// down or fail — contribution 2 of the paper is what buys the n/3 bound.
func a1Validation(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"A1 — validation on/off under the liar adversary (n=4, f=1)",
		"validation", "ok-runs", "mean rounds", "mean msgs")
	var rows [2]tally
	for i, label := range []string{"on", "off"} {
		tl, err := o.sweep(runner.Config{
			N: 4, F: 1, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: runner.AdvLiar, Scheduler: runner.SchedRushByz,
			Inputs:            runner.InputUnanimous1,
			DisableValidation: i == 1,
			MaxRounds:         40, MaxDeliveries: 400_000,
		})
		if err != nil {
			return nil, err
		}
		t.AddRowf(label, tl.okRuns(), mean(tl.rounds), tl.msgs.Mean)
		rows[i] = tl
	}
	on, off := rows[0], rows[1]
	var bad refutation
	bad.check(off.ok < on.ok && off.msgs.Mean > on.msgs.Mean,
		"validation off: %s ok and %.2f msgs against on: %s ok and %.2f msgs",
		off.okRuns(), off.msgs.Mean, on.okRuns(), on.msgs.Mean)
	return t, bad.err()
}

// a2Gadget regenerates ablation A2: DECIDE amplification on versus off.
// Expected shape: identical decision rounds (the gadget changes halting
// only); without it nodes never halt, so the run ends on the stop predicate
// instead of quiescence.
func a2Gadget(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"A2 — decide-amplification gadget on/off (n=7, f=2, silent faults)",
		"gadget", "ok-runs", "mean decision round", "halted processes")
	var rows [2]tally
	for i, label := range []string{"on", "off"} {
		tl, err := o.sweep(runner.Config{
			N: 7, F: 2, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: runner.AdvSilent, Scheduler: runner.SchedUniform,
			Inputs:              runner.InputSplit,
			DisableDecideGadget: i == 1,
			MaxDeliveries:       400_000,
		})
		if err != nil {
			return nil, err
		}
		// "halted" sums the correct processes whose Done held at the end
		// of each run; with the gadget off nothing makes a process halt,
		// so the run ends on the stop predicate instead.
		t.AddRowf(label, tl.okRuns(), mean(tl.rounds), tl.halted)
		rows[i] = tl
	}
	on, off := rows[0], rows[1]
	var bad refutation
	bad.check(on.rounds.Mean == off.rounds.Mean && on.halted > 0 && off.halted == 0,
		"gadget on: round %.2f, %d halted; off: round %.2f, %d halted",
		on.rounds.Mean, on.halted, off.rounds.Mean, off.halted)
	return t, bad.err()
}

// a4Broadcast regenerates ablation A4: reliable broadcast (the paper's
// three-phase primitive) versus consistent broadcast (two phases, cheaper,
// no totality). Expected shape: consistent saves the n² READY messages but
// a partial-send Byzantine sender starves some correct processes, which the
// totality checker flags; reliable broadcast survives the same attack.
func a4Broadcast(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"A4 — reliable vs consistent broadcast (n=7, f=2)",
		"mode", "msgs (correct sender)", "violations (correct sender)",
		"totality violations (partial-send attack)")
	var plain, partial [2]rbcTally
	for m, mode := range []runner.BroadcastMode{runner.ModeReliable, runner.ModeConsistent} {
		var err error
		plain[m], partial[m], err = o.sweepRBC(runner.RBCConfig{N: 7, F: 2, Mode: mode}, func(c *runner.RBCConfig) {
			c.Byzantine, c.SenderPartial = 2, true
		})
		if err != nil {
			return nil, err
		}
		t.AddRowf(mode.String(), plain[m].msgs.Mean, plain[m].violations, partial[m].violations)
	}
	var bad refutation
	bad.check(plain[1].msgs.Mean < plain[0].msgs.Mean && partial[1].violations > 0 &&
		partial[0].violations == 0 && plain[0].violations == 0 && plain[1].violations == 0,
		"reliable: %.2f msgs, %d/%d violations; consistent: %.2f msgs, %d/%d violations (correct/partial sender)",
		plain[0].msgs.Mean, plain[0].violations, partial[0].violations,
		plain[1].msgs.Mean, plain[1].violations, partial[1].violations)
	return t, bad.err()
}

// a3Scheduler regenerates ablation A3: FIFO versus reordering delivery per
// coin type. Expected shape: correctness everywhere (Bracha's protocol does
// not need FIFO links); round counts comparable.
func a3Scheduler(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"A3 — FIFO vs reordering scheduler (n=7, f=2, liar adversary)",
		"scheduler", "coin", "ok-runs", "mean rounds")
	var bad refutation
	for _, sched := range []runner.SchedulerKind{runner.SchedUniform, runner.SchedFIFO} {
		for _, ck := range []runner.CoinKind{runner.CoinLocal, runner.CoinCommon} {
			tl, err := o.sweep(runner.Config{
				N: 7, F: 2, Byzantine: -1,
				Protocol: runner.ProtocolBracha, Coin: ck,
				Adversary: runner.AdvLiar, Scheduler: sched,
				Inputs:        runner.InputSplit,
				MaxDeliveries: 400_000,
			})
			if err != nil {
				return nil, err
			}
			t.AddRowf(sched.String(), ck.String(), tl.okRuns(), mean(tl.rounds))
			bad.check(tl.ok == tl.runs, "%s %s: %s ok", sched, ck, tl.okRuns())
		}
	}
	return t, bad.err()
}

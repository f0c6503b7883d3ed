package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// A1Validation regenerates ablation A1: message validation on versus off
// under the liar adversary. Expected shape: with validation, runs stay
// clean; without it, liar traffic is counted at face value and runs slow
// down or fail — contribution 2 of the paper is what buys the n/3 bound.
func A1Validation(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"A1 — validation on/off under the liar adversary (n=4, f=1)",
		"validation", "ok-runs", "mean rounds", "mean msgs")
	for _, disable := range []bool{false, true} {
		ok := 0
		var rounds, msgs metrics.Online
		results, err := o.sweepSeeds(runner.Config{
			N: 4, F: 1, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: runner.AdvLiar, Scheduler: runner.SchedRushByz,
			Inputs:            runner.InputUnanimous1,
			DisableValidation: disable,
			MaxRounds:         40, MaxDeliveries: 400_000,
		})
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			if len(res.Violations) == 0 && res.AllDecided {
				ok++
				rounds.Add(res.MeanRounds)
			}
			msgs.Add(float64(res.Messages))
		}
		label := "on"
		if disable {
			label = "off"
		}
		t.AddRowf(label, fmt.Sprintf("%d/%d", ok, o.Runs),
			rounds.Mean, msgs.Mean)
	}
	return t, nil
}

// A2Gadget regenerates ablation A2: DECIDE amplification on versus off.
// Expected shape: identical decision rounds (the gadget changes halting
// only); without it nodes never halt, so the run ends on the stop predicate
// instead of quiescence.
func A2Gadget(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"A2 — decide-amplification gadget on/off (n=7, f=2, silent faults)",
		"gadget", "ok-runs", "mean decision round", "halted processes")
	for _, disable := range []bool{false, true} {
		ok, halted := 0, 0
		var rounds metrics.Online
		results, err := o.sweepSeeds(runner.Config{
			N: 7, F: 2, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: runner.AdvSilent, Scheduler: runner.SchedUniform,
			Inputs:              runner.InputSplit,
			DisableDecideGadget: disable,
			MaxDeliveries:       400_000,
		})
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			if len(res.Violations) == 0 && res.AllDecided {
				ok++
				rounds.Add(res.MeanRounds)
			}
			// Halting is observable via the run ending by done-ness; with
			// the gadget disabled the protocol keeps running until the stop
			// predicate fires, so "halted" counts gadget completions only.
			if !disable {
				halted += len(res.Decisions)
			}
		}
		label := "on"
		if disable {
			label = "off"
		}
		t.AddRowf(label, fmt.Sprintf("%d/%d", ok, o.Runs), rounds.Mean, halted)
	}
	return t, nil
}

// A4Broadcast regenerates ablation A4: reliable broadcast (the paper's
// three-phase primitive) versus consistent broadcast (two phases, cheaper,
// no totality). Expected shape: consistent saves the n² READY messages but
// a partial-send Byzantine sender starves some correct processes, which the
// totality checker flags; reliable broadcast survives the same attack.
func A4Broadcast(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"A4 — reliable vs consistent broadcast (n=7, f=2)",
		"mode", "msgs (correct sender)", "violations (correct sender)",
		"totality violations (partial-send attack)")
	for _, mode := range []runner.BroadcastMode{runner.ModeReliable, runner.ModeConsistent} {
		var msgs metrics.Online
		honestViolations, totalityViolations := 0, 0
		var cfgs []runner.RBCConfig
		for i := 0; i < o.Runs; i++ {
			cfgs = append(cfgs,
				runner.RBCConfig{N: 7, F: 2, Byzantine: 0, Mode: mode, Seed: o.Seed + int64(i)},
				runner.RBCConfig{
					N: 7, F: 2, Byzantine: 2, Mode: mode,
					SenderPartial: true, Seed: o.Seed + int64(i),
				})
		}
		results, err := o.sweepRBC(cfgs)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			if cfgs[i].SenderPartial {
				totalityViolations += len(res.Violations)
			} else {
				msgs.Add(float64(res.Messages))
				honestViolations += len(res.Violations)
			}
		}
		t.AddRowf(mode.String(), msgs.Mean, honestViolations, totalityViolations)
	}
	return t, nil
}

// A3Scheduler regenerates ablation A3: FIFO versus reordering delivery per
// coin type. Expected shape: correctness everywhere (Bracha's protocol does
// not need FIFO links); round counts comparable.
func A3Scheduler(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"A3 — FIFO vs reordering scheduler (n=7, f=2, liar adversary)",
		"scheduler", "coin", "ok-runs", "mean rounds")
	for _, sched := range []runner.SchedulerKind{runner.SchedUniform, runner.SchedFIFO} {
		for _, ck := range []runner.CoinKind{runner.CoinLocal, runner.CoinCommon} {
			ok := 0
			var rounds metrics.Online
			results, err := o.sweepSeeds(runner.Config{
				N: 7, F: 2, Byzantine: -1,
				Protocol: runner.ProtocolBracha, Coin: ck,
				Adversary: runner.AdvLiar, Scheduler: sched,
				Inputs:        runner.InputSplit,
				MaxDeliveries: 400_000,
			})
			if err != nil {
				return nil, err
			}
			for _, res := range results {
				if len(res.Violations) == 0 && res.AllDecided {
					ok++
					rounds.Add(res.MeanRounds)
				}
			}
			t.AddRowf(sched.String(), ck.String(), fmt.Sprintf("%d/%d", ok, o.Runs),
				rounds.Mean)
		}
	}
	return t, nil
}

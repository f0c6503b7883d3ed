// Package experiments regenerates every table and figure of the evaluation
// (EXPERIMENTS.md). The PODC-84 paper is a theory paper with no empirical
// section, so the experiments verify its theorems and claims empirically —
// resilience, termination, expected rounds per coin type, message
// complexity, the Ben-Or crossover, and the tightness of the f < n/3 bound —
// plus ablations of this implementation's design choices.
//
// Each experiment returns a metrics.Table whose rendered form is what
// cmd/bench prints and EXPERIMENTS.md records; bench_test.go wraps the same
// functions in testing.B benchmarks.
package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/runner"
)

// Options tunes experiment sizes. The zero value is replaced by Defaults.
type Options struct {
	// Runs is the number of seeded repetitions per configuration.
	Runs int
	// Seed offsets all run seeds (repetition i of a config uses Seed+i).
	Seed int64
	// Quick shrinks sweeps for smoke tests.
	Quick bool
	// Workers bounds the sweep worker pool (0 = GOMAXPROCS, 1 = serial).
	// Results are identical for every value: runs are independent and
	// runner.Sweep merges them by index, never by completion order.
	Workers int
}

// Defaults fills unset options.
func Defaults(o Options) Options {
	if o.Runs <= 0 {
		if o.Quick {
			o.Runs = 5
		} else {
			o.Runs = 25
		}
	}
	return o
}

// sweepSeeds runs cfg once per repetition with seeds Seed, Seed+1, ... —
// the standard repetition pattern of every experiment.
func (o Options) sweepSeeds(cfg runner.Config) ([]*runner.Result, error) {
	seeds := make([]int64, o.Runs)
	for i := range seeds {
		seeds[i] = o.Seed + int64(i)
	}
	return runner.SweepSeeds(cfg, seeds, o.Workers)
}

// sweepRBC is sweep for broadcast experiments.
func (o Options) sweepRBC(cfgs []runner.RBCConfig) ([]*runner.RBCResult, error) {
	return runner.Sweep(cfgs, o.Workers, runner.RunRBC)
}

func (o Options) sizes() []int {
	if o.Quick {
		return []int{4, 7}
	}
	return []int{4, 7, 10, 13, 16}
}

// E1RBCMessages regenerates Table 1: reliable-broadcast message complexity
// versus n, with and without an equivocating Byzantine sender. The shape to
// verify: messages per broadcast grow as n + 2n² and agreement never breaks.
func E1RBCMessages(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E1 / Table 1 — Bracha reliable broadcast: messages per broadcast",
		"n", "f", "msgs(correct sender)", "n+2n² (model)", "msgs(equivocating sender)", "violations")
	sizes := o.sizes()
	if !o.Quick {
		// 64 and 128 are the ROADMAP's larger-n frontier, opened by the
		// streaming sweep engine (broadcast runs stay cheap there).
		sizes = append(sizes, 22, 31, 64, 128)
	}
	for _, n := range sizes {
		f := quorum.MaxByzantine(n)
		var honest, attacked metrics.Online
		violations := 0
		var cfgs []runner.RBCConfig
		for i := 0; i < o.Runs; i++ {
			seed := o.Seed + int64(i)
			cfgs = append(cfgs, runner.RBCConfig{N: n, F: f, Byzantine: 0, Seed: seed})
			if f > 0 {
				cfgs = append(cfgs, runner.RBCConfig{
					N: n, F: f, Byzantine: f, SenderEquivocates: true, Seed: seed,
				})
			}
		}
		results, err := o.sweepRBC(cfgs)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			if cfgs[i].SenderEquivocates {
				attacked.Add(float64(res.Messages))
			} else {
				honest.Add(float64(res.Messages))
			}
			violations += len(res.Violations)
		}
		attackedMean := "-"
		if attacked.Count > 0 {
			attackedMean = fmt.Sprintf("%.0f", attacked.Mean)
		}
		t.AddRowf(n, f, honest.Mean, n+2*n*n, attackedMean, violations)
	}
	return t, nil
}

// E2Resilience regenerates Table 2: consensus at optimal resilience
// f = ⌊(n−1)/3⌋ across every adversary and scheduler. The shape to verify:
// zero safety violations and 100% termination everywhere.
func E2Resilience(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E2 / Table 2 — consensus at f = ⌊(n−1)/3⌋: violations / runs",
		"n", "f", "adversary", "scheduler", "runs", "terminated", "violations")
	adversaries := []runner.Adversary{
		runner.AdvSilent, runner.AdvEquivocator, runner.AdvLiar,
		runner.AdvDecideForger, runner.AdvSplitBrain, runner.AdvCrashMidway,
	}
	schedulers := []runner.SchedulerKind{runner.SchedUniform, runner.SchedRushByz}
	sizes := o.sizes()
	if !o.Quick {
		sizes = []int{4, 7, 10, 16}
	}
	for _, n := range sizes {
		f := quorum.MaxByzantine(n)
		for _, adv := range adversaries {
			for _, sched := range schedulers {
				terminated, violations := 0, 0
				results, err := o.sweepSeeds(runner.Config{
					N: n, F: f, Byzantine: -1,
					Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
					Adversary: adv, Scheduler: sched,
					Inputs: runner.InputSplit,
				})
				if err != nil {
					return nil, err
				}
				for _, res := range results {
					if res.AllDecided {
						terminated++
					}
					violations += len(res.Violations)
				}
				t.AddRowf(n, f, adv.String(), sched.String(), o.Runs,
					fmt.Sprintf("%d/%d", terminated, o.Runs), violations)
			}
		}
	}
	return t, nil
}

// E3LocalCoinRounds regenerates Figure 1: expected decision rounds with the
// local (Ben-Or-style) coin, by input pattern. The shape to verify:
// unanimous inputs decide in round 1 regardless of n; split inputs cost
// more rounds, growing with n (the exponential trend randomization theory
// predicts for private coins).
func E3LocalCoinRounds(o Options) (*metrics.Table, error) {
	return coinRounds(o, runner.CoinLocal,
		"E3 / Figure 1 — expected rounds, local coin (private flips)")
}

// E4CommonCoinRounds regenerates Figure 2: expected decision rounds with the
// Rabin-style common coin. The shape to verify: a flat, small constant in n
// for every input pattern — the paper's constant-expected-time claim.
func E4CommonCoinRounds(o Options) (*metrics.Table, error) {
	return coinRounds(o, runner.CoinCommon,
		"E4 / Figure 2 — expected rounds, common coin (Rabin dealer)")
}

func coinRounds(o Options, ck runner.CoinKind, title string) (*metrics.Table, error) {
	o = Defaults(o)
	// Three workloads of increasing hostility. Benign runs converge in a
	// round or two with any coin; the coin's quality shows on the
	// adversarial series, where a liar keeps the system split and private
	// coins must all land on the same side by luck (expected rounds grow
	// with n) while the common coin re-unifies in one flip (flat).
	workloads := []struct {
		name      string
		inputs    runner.Inputs
		adversary runner.Adversary
		scheduler runner.SchedulerKind
	}{
		{"unanimous", runner.InputUnanimous1, runner.AdvSilent, runner.SchedUniform},
		{"random", runner.InputRandom, runner.AdvSilent, runner.SchedUniform},
		{"split+liar", runner.InputSplit, runner.AdvLiar, runner.SchedPartition},
	}
	series := make([]metrics.Series, len(workloads))
	for wi, w := range workloads {
		series[wi].Name = w.name
		for _, n := range o.sizes() {
			f := quorum.MaxByzantine(n)
			var rounds metrics.Online
			results, err := o.sweepSeeds(runner.Config{
				N: n, F: f, Byzantine: -1,
				Protocol: runner.ProtocolBracha, Coin: ck,
				Adversary: w.adversary, Scheduler: w.scheduler,
				Inputs: w.inputs, MaxDeliveries: 1_000_000,
			})
			if err != nil {
				return nil, err
			}
			for _, res := range results {
				if res.AllDecided {
					rounds.Add(res.MeanRounds)
				}
			}
			series[wi].Add(float64(n), rounds.Mean)
		}
	}
	return metrics.Figure(title, "n", series...), nil
}

// E5MessageComplexity regenerates Table 3: messages and time per decided
// consensus instance versus n with the common coin. The shape to verify:
// messages grow as O(n³) per round (n reliable broadcasts of O(n²) each)
// while rounds stay constant.
func E5MessageComplexity(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E5 / Table 3 — messages per consensus (common coin, split inputs)",
		"n", "f", "mean msgs", "mean rounds", "msgs/n³", "mean sim-time")
	sizes := o.sizes()
	if !o.Quick {
		// The n=64 frontier: ~n³ messages per run, so this row alone moves
		// more traffic than the rest of the table combined (E10 pushes the
		// same workload to n=128 under adversarial schedules).
		sizes = append(sizes, 64)
	}
	for _, n := range sizes {
		f := quorum.MaxByzantine(n)
		var msgs, rounds, simTime metrics.Online
		results, err := o.sweepSeeds(runner.Config{
			N: n, F: f, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: runner.AdvSilent, Scheduler: runner.SchedUniform,
			Inputs: runner.InputSplit,
		})
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			msgs.Add(float64(res.Messages))
			simTime.Add(float64(res.EndTime))
			if res.AllDecided {
				rounds.Add(res.MeanRounds)
			}
		}
		t.AddRowf(n, f, msgs.Mean, rounds.Mean, msgs.Mean/float64(n*n*n), simTime.Mean)
	}
	return t, nil
}

// E6Crossover regenerates Figure 3: Bracha versus Ben-Or as the fault
// fraction grows, both under their worst adversary (equivocation, rushed).
// The shape to verify: both are clean while f < n/5; Ben-Or degrades once
// f ≥ n/5 while Bracha stays clean to f = ⌊(n−1)/3⌋ — the crossover that
// motivated the paper.
func E6Crossover(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E6 / Figure 3 — fault tolerance crossover (equivocating adversary)",
		"n", "f", "f/n", "benor ok-runs", "benor mean rounds", "bracha ok-runs", "bracha mean rounds")
	n := 16
	fs := []int{0, 1, 2, 3, 4, 5}
	if o.Quick {
		n = 11
		fs = []int{0, 2, 3}
	}
	for _, f := range fs {
		if f >= n/2 {
			continue
		}
		var benorOK, brachaOK int
		var benorRounds, brachaRounds metrics.Online
		adv := runner.AdvEquivocator
		if f == 0 {
			adv = runner.AdvNone
		}
		benorResults, err := o.sweepSeeds(runner.Config{
			N: n, F: f, Byzantine: -1,
			Protocol: runner.ProtocolBenOr, Coin: runner.CoinCommon,
			Adversary: adv, Scheduler: runner.SchedRushByz,
			Inputs:    runner.InputSplit,
			MaxRounds: 80, MaxDeliveries: 400_000,
		})
		if err != nil {
			return nil, err
		}
		brachaResults, err := o.sweepSeeds(runner.Config{
			N: n, F: f, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: adv, Scheduler: runner.SchedRushByz,
			Inputs: runner.InputSplit,
		})
		if err != nil {
			return nil, err
		}
		for _, benor := range benorResults {
			if len(benor.Violations) == 0 && benor.AllDecided {
				benorOK++
				benorRounds.Add(benor.MeanRounds)
			}
		}
		for _, bracha := range brachaResults {
			if len(bracha.Violations) == 0 && bracha.AllDecided {
				brachaOK++
				brachaRounds.Add(bracha.MeanRounds)
			}
		}
		t.AddRowf(n, f, float64(f)/float64(n),
			fmt.Sprintf("%d/%d", benorOK, o.Runs), benorRounds.Mean,
			fmt.Sprintf("%d/%d", brachaOK, o.Runs), brachaRounds.Mean)
	}
	return t, nil
}

// E7Tightness regenerates Table 4: the resilience bound is tight. With
// f_actual = ⌊(n−1)/3⌋+1 split-brain colluders the protocol must break
// (agreement violations or non-termination); with f_actual = ⌊(n−1)/3⌋ the
// identical attack must be harmless.
func E7Tightness(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E7 / Table 4 — tightness of f < n/3 (split-brain attack)",
		"n", "f assumed", "byzantine actual", "broken runs", "agreement violations", "non-termination")
	sizes := []int{4, 7}
	if !o.Quick {
		sizes = []int{4, 7, 10}
	}
	for _, n := range sizes {
		f := quorum.MaxByzantine(n)
		for _, actual := range []int{f, f + 1} {
			broken, agreements, nonterm := 0, 0, 0
			results, err := o.sweepSeeds(runner.Config{
				N: n, F: f, Byzantine: actual,
				Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
				Adversary: runner.AdvSplitBrain, Scheduler: runner.SchedRushByz,
				Inputs:    runner.InputSplit,
				MaxRounds: 50, MaxDeliveries: 400_000,
			})
			if err != nil {
				return nil, err
			}
			for _, res := range results {
				bad := false
				for _, v := range res.Violations {
					bad = true
					if v.Property == "agreement" {
						agreements++
					}
				}
				if !res.AllDecided {
					nonterm++
					bad = true
				}
				if bad {
					broken++
				}
			}
			t.AddRowf(n, f, actual, fmt.Sprintf("%d/%d", broken, o.Runs), agreements, nonterm)
		}
	}
	return t, nil
}

// E8Throughput regenerates Figure 4: sequential consensus instances (the
// replicated-log workload that motivates protocols like HoneyBadger) versus
// n. The shape to verify: per-instance message cost grows ~n³ so decisions
// per message budget fall accordingly, while rounds per instance stay flat.
func E8Throughput(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	instances := 10
	if o.Quick {
		instances = 4
	}
	t := metrics.NewTable(
		fmt.Sprintf("E8 / Figure 4 — %d sequential instances (common coin)", instances),
		"n", "f", "instances decided", "mean msgs/instance", "mean rounds", "mean sim-time/instance")
	for _, n := range o.sizes() {
		f := quorum.MaxByzantine(n)
		var msgs, rounds, simTime metrics.Online
		decided := 0
		seeds := make([]int64, instances)
		for k := range seeds {
			seeds[k] = o.Seed + int64(k)*131
		}
		results, err := runner.SweepSeeds(runner.Config{
			N: n, F: f, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: runner.AdvSilent, Scheduler: runner.SchedUniform,
			Inputs: runner.InputRandom,
		}, seeds, o.Workers)
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			if res.AllDecided {
				decided++
				msgs.Add(float64(res.Messages))
				rounds.Add(res.MeanRounds)
				simTime.Add(float64(res.EndTime))
			}
		}
		t.AddRowf(n, f, fmt.Sprintf("%d/%d", decided, instances),
			msgs.Mean, rounds.Mean, simTime.Mean)
	}
	return t, nil
}

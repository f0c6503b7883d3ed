// Package experiments regenerates every table and figure of the evaluation
// (EXPERIMENTS.md). The PODC-84 paper is a theory paper with no empirical
// section, so the experiments verify its theorems and claims empirically —
// resilience, termination, expected rounds per coin type, message
// complexity, the Ben-Or crossover, and the tightness of the f < n/3 bound —
// plus ablations of this implementation's design choices.
//
// Each experiment is one registry row (All): an ID, a title, a one-line
// claim and a Run that returns a metrics.Table — what cmd/bench prints and
// EXPERIMENTS.md records — and checks the claim on the counts and means it
// folded, never on a rendered cell. A table that refutes its claim comes
// back with an error naming the experiment, the claim and the failing rows,
// so `bench exp` exits non-zero. The registry test holds every row to its
// claim at quick size; BenchmarkExperiments in bench_test.go times the same
// rows.
package experiments

import (
	"fmt"
	"strings"

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

// tally folds one consensus sweep into what its table and claim read.
type tally struct {
	runs, decided, ok           int            // ok: decided with no violation
	violations, agreement       int            // all violations; agreement ones
	decisions                   int            // processes that decided, over every run
	rounds                      metrics.Online // each ok run's mean decision round
	msgs, simTime               metrics.Online // every run
	decidedMsgs, decidedSimTime metrics.Online // decided runs
}

func (t *tally) add(r *runner.Result) {
	t.runs++
	t.violations += len(r.Violations)
	for _, v := range r.Violations {
		if v.Property == "agreement" {
			t.agreement++
		}
	}
	t.decisions += len(r.Decisions)
	t.msgs.Add(float64(r.Messages))
	t.simTime.Add(float64(r.EndTime))
	if !r.AllDecided {
		return
	}
	t.decided++
	t.decidedMsgs.Add(float64(r.Messages))
	t.decidedSimTime.Add(float64(r.EndTime))
	if len(r.Violations) == 0 {
		t.ok++
		t.rounds.Add(r.MeanRounds)
	}
}

// okRuns renders the ok-runs cell, "ok/runs".
func (t tally) okRuns() string { return fmt.Sprintf("%d/%d", t.ok, t.runs) }

// sweepSeeds runs cfg once per seed and tallies the results in seed order.
func sweepSeeds(cfg runner.Config, seeds []int64, workers int) (tally, error) {
	var t tally
	results, err := runner.SweepSeeds(cfg, seeds, workers)
	if err != nil {
		return t, err
	}
	for _, r := range results {
		t.add(r)
	}
	return t, nil
}

// sweep runs cfg once per repetition with seeds Seed, Seed+1, … — the
// standard repetition pattern of every experiment.
func (o Options) sweep(cfg runner.Config) (tally, error) {
	seeds := make([]int64, o.Runs)
	for i := range seeds {
		seeds[i] = o.Seed + int64(i)
	}
	return sweepSeeds(cfg, seeds, o.Workers)
}

// rbcTally folds broadcast runs.
type rbcTally struct {
	msgs       metrics.Online
	violations int
}

// sweepRBC runs cfg at seeds Seed, Seed+1, … and each seed once more as
// attack edits cfg, and tallies the plain and the attacked runs apart.
func (o Options) sweepRBC(cfg runner.RBCConfig, attack func(*runner.RBCConfig)) (plain, attacked rbcTally, err error) {
	cfgs := make([]runner.RBCConfig, 0, 2*o.Runs)
	for i := 0; i < o.Runs; i++ {
		cfg.Seed = o.Seed + int64(i)
		a := cfg
		attack(&a)
		cfgs = append(cfgs, cfg, a)
	}
	results, err := runner.Sweep(cfgs, o.Workers, runner.RunRBC)
	if err != nil {
		return plain, attacked, err
	}
	for i, r := range results {
		t := &plain
		if i%2 == 1 {
			t = &attacked
		}
		t.msgs.Add(float64(r.Messages))
		t.violations += len(r.Violations)
	}
	return plain, attacked, nil
}

func (o Options) sizes() []int {
	if o.Quick {
		return []int{4, 7}
	}
	return []int{4, 7, 10, 13, 16}
}

// mean is o's mean as a table cell, or "-" when o saw no run.
func mean(o metrics.Online) any {
	if o.Count == 0 {
		return "-"
	}
	return o.Mean
}

// refutation collects the rows of a table that contradict its claim.
type refutation []string

// check records the row format describes unless ok.
func (r *refutation) check(ok bool, format string, args ...any) {
	if !ok {
		*r = append(*r, fmt.Sprintf(format, args...))
	}
}

// err is nil when no row contradicts the claim.
func (r refutation) err() error {
	if len(r) == 0 {
		return nil
	}
	return r
}

func (r refutation) Error() string { return strings.Join(r, "; ") }

// e1RBCMessages regenerates Table 1: reliable-broadcast message complexity
// versus n, with and without an equivocating Byzantine sender. The shape to
// verify: messages per broadcast grow as n + 2n² and agreement never breaks.
func e1RBCMessages(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"E1 / Table 1 — Bracha reliable broadcast: messages per broadcast",
		"n", "f", "msgs(correct sender)", "n+2n² (model)", "msgs(equivocating sender)", "violations")
	sizes := o.sizes()
	if !o.Quick {
		// 64 and 128 are the ROADMAP's larger-n frontier, opened by the
		// streaming sweep engine (broadcast runs stay cheap there).
		sizes = append(sizes, 22, 31, 64, 128)
	}
	var bad refutation
	for _, n := range sizes {
		f := quorum.MaxByzantine(n)
		honest, attacked, err := o.sweepRBC(runner.RBCConfig{N: n, F: f}, func(c *runner.RBCConfig) {
			c.Byzantine, c.SenderEquivocates = f, true
		})
		if err != nil {
			return nil, err
		}
		violations := honest.violations + attacked.violations
		model := n + 2*n*n
		t.AddRowf(n, f, honest.msgs.Mean, model, fmt.Sprintf("%.0f", attacked.msgs.Mean), violations)
		bad.check(honest.msgs.Mean == float64(model) && violations == 0,
			"n=%d: correct-sender msgs %.2f against %d, %d violations", n, honest.msgs.Mean, model, violations)
	}
	return t, bad.err()
}

// e2Resilience regenerates Table 2: consensus at optimal resilience
// f = ⌊(n−1)/3⌋ across every adversary and scheduler. The shape to verify:
// zero safety violations and 100% termination everywhere.
func e2Resilience(o Options) (*metrics.Table, error) {
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
	var bad refutation
	for _, n := range sizes {
		f := quorum.MaxByzantine(n)
		for _, adv := range adversaries {
			for _, sched := range schedulers {
				tl, err := o.sweep(runner.Config{
					N: n, F: f, Byzantine: -1,
					Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
					Adversary: adv, Scheduler: sched,
					Inputs: runner.InputSplit,
				})
				if err != nil {
					return nil, err
				}
				terminated := fmt.Sprintf("%d/%d", tl.decided, tl.runs)
				t.AddRowf(n, f, adv.String(), sched.String(), tl.runs, terminated, tl.violations)
				bad.check(tl.decided == tl.runs && tl.violations == 0,
					"n=%d %s %s: %s terminated, %d violations", n, adv, sched, terminated, tl.violations)
			}
		}
	}
	return t, bad.err()
}

// e3LocalCoinRounds regenerates Figure 1: expected decision rounds with the
// local (Ben-Or-style) coin, by input pattern. The shape to verify:
// unanimous inputs decide in round 1 regardless of n; split inputs cost
// more rounds, growing with n. (Whether the growth is the exponential one
// randomization theory predicts for private coins is an open question: no
// schedule here keeps correct processes split on purpose.)
func e3LocalCoinRounds(o Options) (*metrics.Table, error) {
	t, _, _, err := coinRounds(o, runner.CoinLocal, "E3 / Figure 1 — expected rounds, local coin (private flips)",
		func(smaller, larger float64) bool { return larger > smaller })
	return t, err
}

// e4CommonCoinRounds regenerates Figure 2: expected decision rounds with the
// Rabin-style common coin. The shape to verify: a flat, small constant in n
// for every input pattern — the paper's constant-expected-time claim.
func e4CommonCoinRounds(o Options) (*metrics.Table, error) {
	t, _, _, err := coinRounds(o, runner.CoinCommon, "E4 / Figure 2 — expected rounds, common coin (Rabin dealer)",
		func(smaller, larger float64) bool { return larger == smaller })
	return t, err
}

// coinRounds tabulates mean decision rounds per input pattern, and how many
// split+liar runs did not decide; it returns the sizes and each size's
// split+liar tally beside the table, refuted unless holds(smaller, larger)
// for the split+liar means of each two neighbouring sizes. Its quick grid
// skips n=7 for n=10: five runs at n=4 and n=7 are too few to order the
// local coin's means on every seed, five at n=4 and n=10 are not.
func coinRounds(o Options, ck runner.CoinKind, title string, holds func(smaller, larger float64) bool) (*metrics.Table, []int, []tally, error) {
	// Three workloads of increasing hostility. Benign runs converge in a
	// round or two with any coin; the coin's quality shows on the
	// adversarial series, where a liar keeps the system split and private
	// coins must all land on the same side by luck (expected rounds grow
	// with n) while the common coin re-unifies in one flip (flat).
	workloads := []struct {
		inputs    runner.Inputs
		adversary runner.Adversary
		scheduler runner.SchedulerKind
	}{
		{runner.InputUnanimous1, runner.AdvSilent, runner.SchedUniform},
		{runner.InputRandom, runner.AdvSilent, runner.SchedUniform},
		{runner.InputSplit, runner.AdvLiar, runner.SchedPartition},
	}
	t := metrics.NewTable(title, "n", "unanimous", "random", "split+liar", "split+liar undecided")
	sizes := o.sizes()
	if o.Quick {
		sizes = []int{4, 10}
	}
	split := make([]tally, len(sizes))
	for i, n := range sizes {
		f := quorum.MaxByzantine(n)
		row := []any{n}
		for _, w := range workloads {
			tl, err := o.sweep(runner.Config{
				N: n, F: f, Byzantine: -1,
				Protocol: runner.ProtocolBracha, Coin: ck,
				Adversary: w.adversary, Scheduler: w.scheduler,
				Inputs: w.inputs, MaxDeliveries: 1_000_000,
			})
			if err != nil {
				return nil, nil, nil, err
			}
			row = append(row, mean(tl.rounds))
			split[i] = tl // the last workload's
		}
		t.AddRowf(append(row, split[i].runs-split[i].decided)...)
	}
	var bad refutation
	for i := 1; i < len(split); i++ {
		smaller, larger := split[i-1].rounds.Mean, split[i].rounds.Mean
		bad.check(holds(smaller, larger), "n=%d split+liar rounds %.2f against n=%d's %.2f",
			sizes[i], larger, sizes[i-1], smaller)
	}
	return t, sizes, split, bad.err()
}

// e5MessageComplexity regenerates Table 3: messages and time per decided
// consensus instance versus n with the common coin. The shape to verify:
// messages grow as O(n³) per round (n reliable broadcasts of O(n²) each)
// while rounds stay constant.
func e5MessageComplexity(o Options) (*metrics.Table, error) {
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
	var bad refutation
	var first float64
	for i, n := range sizes {
		f := quorum.MaxByzantine(n)
		tl, err := o.sweep(runner.Config{
			N: n, F: f, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: runner.AdvSilent, Scheduler: runner.SchedUniform,
			Inputs: runner.InputSplit,
		})
		if err != nil {
			return nil, err
		}
		perCube := tl.msgs.Mean / float64(n*n*n)
		t.AddRowf(n, f, tl.msgs.Mean, mean(tl.rounds), perCube, tl.simTime.Mean)
		if i == 0 {
			first = tl.rounds.Mean
		}
		bad.check(tl.ok == tl.runs && tl.rounds.Mean == first && perCube >= 3 && perCube <= 6,
			"n=%d: %s ok, mean rounds %.2f against n=%d's %.2f, msgs/n³ %.2f",
			n, tl.okRuns(), tl.rounds.Mean, sizes[0], first, perCube)
	}
	return t, bad.err()
}

// e6Crossover regenerates Figure 3: Bracha versus Ben-Or as the fault
// fraction grows, both under their worst adversary (equivocation, rushed).
// The shape to verify: Bracha completes every run in flat rounds to
// f = ⌊(n−1)/3⌋, while Ben-Or degrades once f ≥ n/5 — the crossover that
// motivated the paper. How it degrades depends on the grid: at n=11 it
// fails runs, at n=16 (MaxRounds 80) it still completes every run but its
// mean rounds climb (EXPERIMENTS.md, Claims).
func e6Crossover(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"E6 / Figure 3 — fault tolerance crossover (equivocating adversary)",
		"n", "f", "f/n", "benor ok-runs", "benor mean rounds", "bracha ok-runs", "bracha mean rounds")
	n := 16
	fs := []int{0, 1, 2, 3, 4, 5}
	if o.Quick {
		n = 11
		fs = []int{0, 2, 3}
	}
	var bad refutation
	var benorFell bool
	var benorBelow, benorAbove, bracha metrics.Online // Ben-Or's rounds below and from n/5; Bracha's
	for _, f := range fs {
		if f >= n/2 {
			continue
		}
		adv := runner.AdvEquivocator
		if f == 0 {
			adv = runner.AdvNone
		}
		cfg := runner.Config{
			N: n, F: f, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: adv, Scheduler: runner.SchedRushByz,
			Inputs: runner.InputSplit,
		}
		br, err := o.sweep(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Protocol, cfg.MaxRounds, cfg.MaxDeliveries = runner.ProtocolBenOr, 80, 400_000
		benor, err := o.sweep(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRowf(n, f, float64(f)/float64(n),
			benor.okRuns(), mean(benor.rounds), br.okRuns(), mean(br.rounds))
		bad.check(br.ok == br.runs, "f=%d: Bracha %s ok", f, br.okRuns())
		if 5*f >= n {
			benorFell = benorFell || benor.ok < benor.runs
			benorAbove.Add(benor.rounds.Mean)
		} else {
			benorBelow.Add(benor.rounds.Mean)
		}
		bracha.Add(br.rounds.Mean)
	}
	if o.Quick {
		bad.check(benorFell, "n=%d: Ben-Or completed every run at every f ≥ n/5", n)
	} else {
		bad.check(benorAbove.Min > benorBelow.Max && bracha.Min == bracha.Max,
			"n=%d: Ben-Or's least mean rounds at f ≥ n/5 %.2f against its most below %.2f; Bracha's %.2f–%.2f",
			n, benorAbove.Min, benorBelow.Max, bracha.Min, bracha.Max)
	}
	return t, bad.err()
}

// e7Tightness regenerates Table 4: the resilience bound is tight. With
// f_actual = ⌊(n−1)/3⌋+1 split-brain colluders the protocol must break
// (agreement violations or non-termination); with f_actual = ⌊(n−1)/3⌋ the
// identical attack must be harmless.
func e7Tightness(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"E7 / Table 4 — tightness of f < n/3 (split-brain attack)",
		"n", "f assumed", "byzantine actual", "broken runs", "agreement violations", "non-termination")
	sizes := []int{4, 7}
	if !o.Quick {
		sizes = []int{4, 7, 10}
	}
	var bad refutation
	for _, n := range sizes {
		f := quorum.MaxByzantine(n)
		for _, actual := range []int{f, f + 1} {
			tl, err := o.sweep(runner.Config{
				N: n, F: f, Byzantine: actual,
				Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
				Adversary: runner.AdvSplitBrain, Scheduler: runner.SchedRushByz,
				Inputs:    runner.InputSplit,
				MaxRounds: 50, MaxDeliveries: 400_000,
			})
			if err != nil {
				return nil, err
			}
			broken := tl.runs - tl.ok
			t.AddRowf(n, f, actual, fmt.Sprintf("%d/%d", broken, tl.runs), tl.agreement, tl.runs-tl.decided)
			bad.check((broken == 0) == (actual == f),
				"n=%d with %d Byzantine against f=%d: %d/%d runs broken", n, actual, f, broken, tl.runs)
		}
	}
	return t, bad.err()
}

// e8Throughput regenerates Figure 4: sequential consensus instances (the
// replicated-log workload that motivates protocols like HoneyBadger) versus
// n. The shape to verify: per-instance message cost grows ~n³ so decisions
// per message budget fall accordingly, while rounds per instance stay flat.
func e8Throughput(o Options) (*metrics.Table, error) {
	instances := 10
	if o.Quick {
		instances = 4
	}
	t := metrics.NewTable(
		fmt.Sprintf("E8 / Figure 4 — %d sequential instances (common coin)", instances),
		"n", "f", "instances decided", "mean msgs/instance", "mean rounds", "mean sim-time/instance")
	seeds := make([]int64, instances)
	for k := range seeds {
		seeds[k] = o.Seed + int64(k)*131
	}
	var bad refutation
	var first float64
	for i, n := range o.sizes() {
		f := quorum.MaxByzantine(n)
		tl, err := sweepSeeds(runner.Config{
			N: n, F: f, Byzantine: -1,
			Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
			Adversary: runner.AdvSilent, Scheduler: runner.SchedUniform,
			Inputs: runner.InputRandom,
		}, seeds, o.Workers)
		if err != nil {
			return nil, err
		}
		decided := fmt.Sprintf("%d/%d", tl.decided, tl.runs)
		t.AddRowf(n, f, decided, mean(tl.decidedMsgs), mean(tl.rounds), mean(tl.decidedSimTime))
		if i == 0 {
			first = tl.rounds.Mean
		}
		bad.check(tl.ok == tl.runs && tl.rounds.Mean == first,
			"n=%d: %s decided, mean rounds %.2f against n=4's %.2f", n, decided, tl.rounds.Mean, first)
	}
	return t, bad.err()
}

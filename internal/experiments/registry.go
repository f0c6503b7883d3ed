package experiments

import (
	"fmt"

	"repro/internal/metrics"
)

// Experiment is one regenerable table or figure and the claim it checks.
// Run returns the table even when the table refutes Claim; the error then
// names the experiment, the claim and the rows that refute it. Any other
// error comes with no table.
type Experiment struct {
	ID    string
	Title string
	// Claim says in one line what the table shows; Run checks it on the
	// counts and means it folds.
	Claim string
	Run   func(Options) (*metrics.Table, error)
}

// All returns every experiment and ablation, in presentation order.
func All() []Experiment {
	all := []Experiment{
		{"E1", "Table 1 — RBC message complexity", "a correct sender's broadcast costs exactly n+2n² messages, and no broadcast violates a property", e1RBCMessages},
		{"E2", "Table 2 — resilience matrix", "at f = ⌊(n−1)/3⌋ every run terminates without a violation, under every adversary and scheduler", e2Resilience},
		{"E3", "Figure 1 — expected rounds, local coin", "with a local coin, split+liar runs take more mean rounds at each larger n", e3LocalCoinRounds},
		{"E4", "Figure 2 — expected rounds, common coin", "with a common coin, split+liar runs take the same mean rounds at every n", e4CommonCoinRounds},
		{"E5", "Table 3 — message complexity of consensus", "every run decides without a violation in n=4's mean rounds, and mean messages lie between 3n³ and 6n³", e5MessageComplexity},
		{"E6", "Figure 3 — Bracha vs Ben-Or crossover", "Bracha completes every run at every f; Ben-Or fails a run at some f ≥ n/5 at n=11, and at n=16 its mean rounds at every f ≥ n/5 exceed those below while Bracha's stay flat", e6Crossover},
		{"E7", "Table 4 — tightness of f < n/3", "split-brain colluders break no run at f = ⌊(n−1)/3⌋ and some run at f+1", e7Tightness},
		{"E8", "Figure 4 — repeated-consensus throughput", "every sequential instance decides without a violation, in n=4's mean rounds at every n", e8Throughput},
		{"E9", "Table 5 — asynchronous common subset (extension)", "every run outputs one subset of at least n−f inputs at all correct processes", e9ACS},
		{"E10", "Table 6 — adversarial property harness", "no scenario's sweep violates a property, leaves a consensus run undecided or exhausts its budget", e10PropertyHarness},
		{"E11", "Table 7 — per-round pruning memory", "doubling the rounds doubles deliveries and grows rbc digests, and leaves every other retainer count unchanged", e11MemoryPruning},
		{"E12", "Table 8 — checkpoint & state-transfer residue", "without checkpoints the log and dealers grow with slots; with them they stay within two intervals, at the same log digest", e12ResidueCheckpointing},
		{"E13", "Table 9 — batched, pipelined log throughput", "entries per kilodelivery rise with the batch, and depth 2 ends sooner in virtual time than depth 1 at the same log digest", e13BatchedThroughput},
		{"E14", "Table 10 — erasure-coded dissemination bandwidth", "coded dissemination sends fewer wire bytes than uncoded, and saves more at each larger batch", e14CodedDissemination},
		{"E16", "Table 12 — telemetry plane: wire costs, phases, critical paths", "the adaptive-cliff schedule costs more mean rounds than reorder, with no run violating a property", e16Telemetry},
		{"A1", "Ablation — message validation", "without validation the liar leaves fewer runs ok and costs more messages", a1Validation},
		{"A2", "Ablation — decide gadget", "the gadget changes halting, not deciding: the same mean decision round either way, and processes halt only with it", a2Gadget},
		{"A3", "Ablation — FIFO vs reordering", "every run decides without a violation under FIFO and reordering delivery, with either coin", a3Scheduler},
		{"A4", "Ablation — reliable vs consistent broadcast", "consistent broadcast sends fewer messages but loses totality to a partial-send sender; reliable broadcast keeps it", a4Broadcast},
	}
	for i := range all {
		all[i].Run = all[i].named()
	}
	return all
}

// named wraps e.Run so it fills unset options and its errors name e, and a
// refutation e's claim too.
func (e Experiment) named() func(Options) (*metrics.Table, error) {
	return func(o Options) (*metrics.Table, error) {
		t, err := e.Run(Defaults(o))
		switch {
		case err == nil:
			return t, nil
		case t == nil:
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		return t, fmt.Errorf("%s: claim %q fails: %w", e.ID, e.Claim, err)
	}
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

package experiments

import (
	"fmt"

	"repro/internal/metrics"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*metrics.Table, error)
}

// All returns every experiment and ablation, in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Table 1 — RBC message complexity", Run: E1RBCMessages},
		{ID: "E2", Title: "Table 2 — resilience matrix", Run: E2Resilience},
		{ID: "E3", Title: "Figure 1 — expected rounds, local coin", Run: E3LocalCoinRounds},
		{ID: "E4", Title: "Figure 2 — expected rounds, common coin", Run: E4CommonCoinRounds},
		{ID: "E5", Title: "Table 3 — message complexity of consensus", Run: E5MessageComplexity},
		{ID: "E6", Title: "Figure 3 — Bracha vs Ben-Or crossover", Run: E6Crossover},
		{ID: "E7", Title: "Table 4 — tightness of f < n/3", Run: E7Tightness},
		{ID: "E8", Title: "Figure 4 — repeated-consensus throughput", Run: E8Throughput},
		{ID: "E9", Title: "Table 5 — asynchronous common subset (extension)", Run: E9ACS},
		{ID: "E10", Title: "Table 6 — adversarial property harness", Run: E10PropertyHarness},
		{ID: "E11", Title: "Table 7 — per-round pruning memory", Run: E11MemoryPruning},
		{ID: "E12", Title: "Table 8 — checkpoint & state-transfer residue", Run: E12ResidueCheckpointing},
		{ID: "E13", Title: "Table 9 — batched, pipelined log throughput", Run: E13BatchedThroughput},
		{ID: "E14", Title: "Table 10 — erasure-coded dissemination bandwidth", Run: E14CodedDissemination},
		{ID: "E16", Title: "Table 12 — telemetry plane: wire costs, phases, critical paths", Run: E16Telemetry},
		{ID: "A1", Title: "Ablation — message validation", Run: A1Validation},
		{ID: "A2", Title: "Ablation — decide gadget", Run: A2Gadget},
		{ID: "A3", Title: "Ablation — FIFO vs reordering", Run: A3Scheduler},
		{ID: "A4", Title: "Ablation — reliable vs consistent broadcast", Run: A4Broadcast},
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

package runner_test

import (
	"reflect"
	"testing"

	"repro/internal/runner"
)

// TestDeadMailRecorderGrid: a silent adversary's processes are never
// registered, so the network only counts the mail sent to them — unless a
// recorder is enabled, which has it queued and popped like any other. Across
// every schedule family, with budgets that run out and ones that do not and
// with telemetry off and on (alternate seeds), a run must report the same drops, exhaustion
// and telemetry either way.
func TestDeadMailRecorderGrid(t *testing.T) {
	var runs, exhausted int
	for kind := runner.SchedUniform; kind <= runner.SchedAdaptiveRush; kind++ {
		for _, budget := range []int{200, 900, 0} {
			for seed := int64(1); seed <= 4; seed++ {
				telemetry := seed%2 == 0
				cfg := runner.Config{
					N: 7, F: 2, Byzantine: -1,
					Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
					Adversary: runner.AdvSilent, Scheduler: kind,
					Inputs: runner.InputSplit, Seed: seed,
					MaxDeliveries: budget, Telemetry: telemetry,
				}
				plain, err := runner.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Trace = true
				traced, err := runner.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if plain.Dropped != traced.Dropped || plain.Exhausted != traced.Exhausted ||
					plain.Messages != traced.Messages || plain.Deliveries != traced.Deliveries {
					t.Errorf("%v budget %d seed %d: dropped/exhausted/msgs/deliveries %d/%v/%d/%d untraced, %d/%v/%d/%d traced",
						kind, budget, seed, plain.Dropped, plain.Exhausted, plain.Messages, plain.Deliveries,
						traced.Dropped, traced.Exhausted, traced.Messages, traced.Deliveries)
				}
				if telemetry && (!reflect.DeepEqual(plain.Telemetry.Kinds, traced.Telemetry.Kinds) ||
					!reflect.DeepEqual(plain.Telemetry.Phases, traced.Telemetry.Phases)) {
					t.Errorf("%v budget %d seed %d: telemetry differs with the recorder on", kind, budget, seed)
				}
				if plain.Dropped == 0 {
					t.Errorf("%v budget %d seed %d: no drops, so no mail reached the silent processes", kind, budget, seed)
				}
				runs++
				if plain.Exhausted {
					exhausted++
				}
			}
		}
	}
	if exhausted == 0 || exhausted == runs {
		t.Fatalf("%d of %d runs exhausted their budget; the grid needs both outcomes", exhausted, runs)
	}
}

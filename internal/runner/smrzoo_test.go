package runner

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/quorum"
)

// TestSMRUnderWholeZoo runs the replicated log under every scheduler family
// — the product "any workload × any schedule" that RunSMR's old four-family
// whitelist ruled out: every SchedulerKind × n ∈ {4, 7} × checkpoints off /
// on / on with the restart victim (a restart needs checkpoints). Each run
// must commit its slots on every replica with no cross-replica mismatch, a
// gap-free reference stream and budget to spare, and be a pure function of
// (config, seed).
func TestSMRUnderWholeZoo(t *testing.T) {
	sizes := []int{4, 7}
	if testing.Short() {
		sizes = sizes[:1]
	}
	const slots = 12
	for kind := SchedUniform; kind <= SchedAdaptiveRush; kind++ {
		for _, n := range sizes {
			base := SMRConfig{
				N: n, F: quorum.MaxByzantine(n), Slots: slots, Commands: 4,
				Batch: 2, Depth: 2, Coin: CoinCommon, sched: kind, Seed: int64(n),
			}
			ckpt := base
			ckpt.CheckpointEvery = 4
			restart := RestartCatchupSpec(n, slots, 4, int64(n))
			restart.sched = kind
			for name, cfg := range map[string]SMRConfig{"plain": base, "ckpt": ckpt, "restart": restart} {
				t.Run(fmt.Sprintf("%v/n%d/%s", kind, n, name), func(t *testing.T) {
					res, err := RunSMR(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Exhausted || !res.FullStream || res.Mismatches != 0 {
						t.Fatalf("exhausted=%v full-stream=%v mismatches=%d", res.Exhausted, res.FullStream, res.Mismatches)
					}
					for i, c := range res.Committed {
						if c < slots {
							t.Errorf("replica %d stopped at slot %d < %d", i, c, slots)
						}
					}
					if cfg.Restart != nil && (res.VictimDown || res.Transfers < 1) {
						t.Errorf("victim down=%v transfers=%d: catch-up did not happen", res.VictimDown, res.Transfers)
					}
					again, err := RunSMR(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, again) {
						t.Errorf("same (config, seed), different results:\n%+v\nvs\n%+v", res, again)
					}
				})
			}
		}
	}
}

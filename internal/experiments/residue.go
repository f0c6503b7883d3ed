package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// e12ResidueCheckpointing regenerates Table 8: what the checkpoint &
// state-transfer subsystem (internal/ckpt) buys on long replicated-log
// executions. Per-round pruning (E11) bounds every per-round retainer but
// deliberately leaves a residue that grows with slots committed: one RBC
// delivered record per slot per replica, one coin dealer per slot,
// and the committed log itself. Each row runs the identical log workload —
// same commands, same seeds — and reports that residue at the end of the
// run, with checkpointing off and at two cut cadences:
//
//   - log retained: committed entries still held across the cluster
//     (n·slots without checkpointing; the suffix above the cut with it);
//   - rbc records / rbc bytes: compact delivered records of the
//     dissemination layer (the residue pruning keeps on purpose);
//   - dealer slots / rounds: per-slot common-coin dealers and their dealt
//     sharings, released below the cluster's minimum certified cut;
//   - cut: the highest certified checkpoint at the end of the run.
//
// The shape to verify: with checkpointing off every residue column grows
// linearly with slots; with it, each is bounded by O(interval) per replica
// whatever the log length — the first sublinear memory row in the
// repository, and the reason infinite executions now run in bounded space.
// The log digest column must be identical down each slots group: the
// subsystem moves memory, never what commits (the golden acceptance of the
// checkpoint tests, re-demonstrated here at table scale).
//
// Determinism note: every column is a pure function of (config, seed) —
// byte-stable across reruns, machines, and worker counts, like all
// non-telemetry tables.
func e12ResidueCheckpointing(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"E12 / Table 8 — checkpoint & state transfer: retained residue vs slots committed",
		"n", "slots", "ckpt-every", "cut", "log retained", "rbc records",
		"rbc bytes", "dealer slots", "dealer rounds", "log digest", "deliveries")
	slotSizes := []int{512, 1024}
	if o.Quick {
		slotSizes = []int{320}
	}
	const n, f = 4, 1
	intervals := []int{0, 64, 256}
	var bad refutation
	for _, slots := range slotSizes {
		var digest uint64
		for _, every := range intervals {
			res, err := runner.RunSMR(runner.SMRConfig{
				N: n, F: f,
				Slots:           slots,
				Commands:        8,
				CheckpointEvery: every,
				Coin:            runner.CoinCommon,
				Seed:            o.Seed,
			})
			if err != nil {
				return nil, err
			}
			label := "off"
			if every > 0 {
				label = strconv.Itoa(every)
			}
			t.AddRowf(n, slots, label, res.CertifiedCut, res.LogRetained,
				res.RBCRecords, res.RBCDigestBytes, res.DealerSlots,
				res.DealerRounds, fmt.Sprintf("%016x", res.LogDigest), res.Deliveries)
			if every == 0 {
				digest = res.LogDigest
				bad.check(res.LogRetained == n*slots && res.DealerSlots == slots,
					"%d slots without checkpoints: log retained %d, dealer slots %d", slots, res.LogRetained, res.DealerSlots)
				continue
			}
			bad.check(res.LogDigest == digest && res.LogRetained <= 2*n*every &&
				res.RBCRecords <= 2*n*every && res.DealerSlots <= 2*every,
				"%d slots, checkpoint every %d: digest %016x against %016x, log retained %d, rbc records %d, dealer slots %d",
				slots, every, res.LogDigest, digest, res.LogRetained, res.RBCRecords, res.DealerSlots)
		}
	}
	return t, bad.err()
}

package experiments

import (
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// e13BatchedThroughput regenerates Table 9: what batching and pipelined
// dissemination buy on the replicated log, measured in committed entries
// per unit of simulator work. One slot of Bracha agreement costs ~7n³
// deliveries whether its decided body carries one command or a batch, so
// entries per kilodelivery should scale near-linearly with the batch size;
// pipeline depth overlaps the dissemination of upcoming proposer turns
// with the current slot's agreement and shows up as reduced virtual end
// time, not reduced deliveries. Every row commits the same entry target so
// the ratios compare like-for-like.
//
// Columns:
//
//   - slots: agreement instances the row ran (ceil(entries/batch)) — the
//     headline of batching is this column shrinking while entries holds;
//   - entries: committed log entries in [0, slots) (>= the target; full
//     preloaded batches, no noop padding);
//   - deliveries / ent-per-kdeliv: the deterministic throughput figure;
//   - virtual time: simulator end time — the pipelining column;
//   - log digest: reference replica's chained entry digest, bitwise stable
//     across reruns, worker counts, and checkpoint cadences.
//
// The quick and default tables run n=16 and below; the n=64 and n=128
// frontier rows are gated behind REPRO_HARNESS_FULL=1 like every
// frontier-size property (an n=128 slot is ~15M deliveries — minutes, not
// CI seconds). Wall-clock entries/sec is deliberately absent: it is
// telemetry, and cmd/bench reports it on stderr where it cannot contaminate
// byte-stable output.
func e13BatchedThroughput(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"E13 / Table 9 — batched, pipelined replicated log: committed entries per unit work",
		"n", "f", "batch", "depth", "slots", "entries", "deliveries",
		"ent-per-kdeliv", "virtual time", "log digest")
	type size struct {
		n, entries int
	}
	sizes := []size{{4, 32}, {16, 32}}
	if o.Quick {
		sizes = []size{{4, 24}, {16, 24}}
	}
	if os.Getenv("REPRO_HARNESS_FULL") != "" {
		sizes = append(sizes, size{64, 32}, size{128, 32})
	}
	batches := []int{1, 4, 16}
	depths := []int{1, 2}
	var bad refutation
	for _, s := range sizes {
		f := (s.n - 1) / 3
		points, err := runner.RunThroughput(runner.SMRConfig{
			N: s.n, F: f, Coin: runner.CoinCommon, Seed: o.Seed,
		}, s.entries, batches, depths, o.Workers)
		if err != nil {
			return nil, err
		}
		// points is batch-major: the point one batch down sits len(depths)
		// before p, the first depth d before.
		for i, p := range points {
			if p.Mismatches != 0 || p.SubmitDropped != 0 || p.DuplicateCommands != 0 || p.Exhausted {
				return nil, fmt.Errorf("experiments: unhealthy throughput point n=%d batch=%d depth=%d: %+v",
					s.n, p.Config.Batch, p.Config.Depth, p)
			}
			t.AddRowf(s.n, f, p.Config.Batch, p.Config.Depth, p.Config.Slots, p.Entries, p.Deliveries,
				fmt.Sprintf("%.2f", p.EntriesPerKDeliveries()), int(p.EndTime),
				fmt.Sprintf("%016x", p.LogDigest))
			if i >= len(depths) {
				q := points[i-len(depths)]
				bad.check(p.EntriesPerKDeliveries() > q.EntriesPerKDeliveries(),
					"n=%d depth %d: batch %d reads %.2f entries per kilodelivery, batch %d %.2f",
					s.n, p.Config.Depth, p.Config.Batch, p.EntriesPerKDeliveries(), q.Config.Batch, q.EntriesPerKDeliveries())
			}
			if q := points[i-i%len(depths)]; q != p {
				bad.check(p.EndTime < q.EndTime && p.LogDigest == q.LogDigest,
					"n=%d batch %d: depth %d ends at %d with digest %016x, depth %d at %d with %016x",
					s.n, p.Config.Batch, p.Config.Depth, p.EndTime, p.LogDigest, q.Config.Depth, q.EndTime, q.LogDigest)
			}
		}
	}
	return t, bad.err()
}

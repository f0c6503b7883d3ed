package experiments

import (
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// e14CodedDissemination regenerates Table 10: what erasure-coded
// dissemination (AVID-style coded reliable broadcast) buys on the wire.
// Every (n, batch) cell runs the identical replicated-log workload twice —
// plain Bracha dissemination versus the coded plane — and reports the
// total metered wire bytes of each. The committed logs must match bitwise
// (the run errors out on any digest divergence), so the only number coding
// is allowed to move is the bandwidth column.
//
// The shape to verify is the AVID communication bound: an uncoded broadcast
// echoes the full |v|-byte body n² times (O(n²·|v|) per broadcast), while
// the coded one ships each peer a |v|/k fragment plus a 32n-byte
// cross-checksum (O(n·|v| + n²·λ) total). The reduction column should
// therefore grow with both n and the body size — near break-even for tiny
// bodies at n=4, multiples once batches are KB-sized, and ≥3× at the n=64
// frontier. Total bytes include all the (uncoded, tiny) agreement traffic,
// so the reported reduction understates the dissemination-plane win.
//
// Columns:
//
//   - batch / body B: commands per proposal and the padded body size the
//     proposer disseminates (batch × 2 KiB commands, plus framing);
//   - uncoded B / coded B: total metered wire bytes of the two runs
//     (wire.MessageSize over every sent message, agreement included);
//   - coded B/slot: coded bytes amortized per agreement slot — the
//     per-broadcast figure of Table 10;
//   - reduction: uncoded ÷ coded total bytes;
//   - log digest: identical for both runs by construction (checked).
//
// The n=64 frontier row is gated behind REPRO_HARNESS_FULL=1 like every
// frontier-size workload; quick and default tables stay at CI-smoke sizes.
func e14CodedDissemination(o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"E14 / Table 10 — erasure-coded dissemination: wire bytes, coded vs uncoded",
		"n", "f", "batch", "body B", "slots", "uncoded B", "coded B",
		"coded B/slot", "reduction", "log digest")
	const commandBytes = 2048
	sizes := []int{4, 16}
	slots := 6
	batches := []int{1, 4, 16}
	if o.Quick {
		sizes = []int{4, 8}
		slots = 4
		batches = []int{1, 4}
	}
	if os.Getenv("REPRO_HARNESS_FULL") != "" {
		sizes = append(sizes, 64)
	}
	var bad refutation
	for _, n := range sizes {
		f := (n - 1) / 3
		prev := 0.0 // the reduction at the previous batch
		for _, batch := range batches {
			// Preload full batches (ceil(slots/n) proposer turns each), so
			// every disseminated body carries batch × commandBytes of
			// payload, not noop padding.
			commands := (slots + n - 1) / n * batch
			base := runner.SMRConfig{
				N: n, F: f,
				Slots:        slots,
				Commands:     commands,
				CommandBytes: commandBytes,
				Batch:        batch,
				Depth:        2,
				Coin:         runner.CoinCommon,
				Seed:         o.Seed,
			}
			uncoded, err := runner.RunSMR(base)
			if err != nil {
				return nil, fmt.Errorf("experiments: E14 uncoded n=%d batch=%d: %w", n, batch, err)
			}
			codedCfg := base
			codedCfg.Coded = true
			coded, err := runner.RunSMR(codedCfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: E14 coded n=%d batch=%d: %w", n, batch, err)
			}
			for _, r := range []*runner.SMRResult{uncoded, coded} {
				if r.Exhausted || r.Mismatches != 0 || !r.FullStream {
					return nil, fmt.Errorf("experiments: E14 unhealthy run n=%d batch=%d coded=%v: exhausted=%v mismatches=%d full=%v",
						n, batch, r.Config.Coded, r.Exhausted, r.Mismatches, r.FullStream)
				}
			}
			if coded.LogDigest != uncoded.LogDigest || coded.StateDigest != uncoded.StateDigest {
				return nil, fmt.Errorf("experiments: E14 digest divergence n=%d batch=%d: coded (%016x, %016x) vs uncoded (%016x, %016x)",
					n, batch, coded.LogDigest, coded.StateDigest, uncoded.LogDigest, uncoded.StateDigest)
			}
			reduction := float64(uncoded.WireBytes) / float64(coded.WireBytes)
			t.AddRowf(n, f, batch, batch*commandBytes, slots,
				uncoded.WireBytes, coded.WireBytes,
				coded.WireBytes/int64(slots),
				fmt.Sprintf("%.2f×", reduction),
				fmt.Sprintf("%016x", uncoded.LogDigest))
			bad.check(reduction > max(prev, 1), "n=%d batch %d: reduction %.2f× against %.2f× a batch before",
				n, batch, reduction, prev)
			prev = reduction
		}
	}
	return t, bad.err()
}

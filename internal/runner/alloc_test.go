package runner

import (
	"runtime"
	"testing"
)

// TestRunAllocationsPerDelivery holds whole runs — construction, the
// delivery loop, a Byzantine process's traffic and the common coin — to an
// allocation budget per thousand deliveries. The benchmem gate's allocs/op
// is an integer, so a path that allocates on a fraction of its deliveries
// reads 0 there; this test counts every allocation of a block of runs and
// divides by the deliveries they made. The first row is the benchmark's
// sweep_n7 config; the second swaps the liar for a crash mid-protocol; the
// third is a small plain n=16 RunSMR shaped like the benchmark's
// smr_plain_n16, the replicated log's agreement path. Each bound is the
// measured value × 1.15.
func TestRunAllocationsPerDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run allocation count; skipped under -short")
	}
	base := Config{
		N: 7, F: 2, Byzantine: -1,
		Protocol: ProtocolBracha, Coin: CoinCommon,
		Adversary: AdvLiar, Scheduler: SchedRushByz,
		Inputs: InputSplit,
	}
	crash := base
	crash.Adversary = AdvCrashMidway
	consensus := func(cfg Config) func(seed int64) (int, error) {
		return func(seed int64) (int, error) {
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				return 0, err
			}
			return res.Deliveries, nil
		}
	}
	smrPlain := func(seed int64) (int, error) {
		const n, slots, batch, depth = 16, 32, 16, 2
		res, err := RunSMR(SMRConfig{
			N: n, F: 5, Slots: slots, Batch: batch, Depth: depth,
			Commands: ((slots+n-1)/n + depth) * batch,
			Coin:     CoinLocal, Seed: seed,
		})
		if err != nil {
			return 0, err
		}
		return res.Deliveries, nil
	}
	for _, tt := range []struct {
		name  string
		run   func(seed int64) (deliveries int, err error)
		seeds int64
		bound float64 // measured × 1.15
	}{
		{"liar", consensus(base), 64, 140 * 1.15},
		{"crash-midway", consensus(crash), 64, 233 * 1.15},
		{"smr-plain-n16", smrPlain, 3, 33 * 1.15},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var before, after runtime.MemStats
			deliveries := 0
			runtime.GC()
			runtime.ReadMemStats(&before)
			for seed := int64(1); seed <= tt.seeds; seed++ {
				d, err := tt.run(seed)
				if err != nil {
					t.Fatal(err)
				}
				deliveries += d
			}
			runtime.ReadMemStats(&after)
			perK := float64(after.Mallocs-before.Mallocs) * 1000 / float64(deliveries)
			t.Logf("%.1f allocs per k-delivery over %d runs (%d deliveries)", perK, tt.seeds, deliveries)
			if perK > tt.bound {
				t.Errorf("%.1f allocs per k-delivery, bound %.0f", perK, tt.bound)
			}
		})
	}
}

// TestRunSMRBytesPerDelivery holds the replicated log's agreement path — a
// small plain n=16 RunSMR shaped like the benchmark's smr_plain_n16 — to a
// budget of bytes allocated per thousand deliveries: the per-slot consensus
// instance, its validator and broadcaster, and every message they handle.
// The bound is the measured value × 1.15.
func TestRunSMRBytesPerDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run allocation count; skipped under -short")
	}
	const n, slots, batch, depth, seeds = 16, 32, 16, 2, 3
	var before, after runtime.MemStats
	deliveries := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := RunSMR(SMRConfig{
			N: n, F: 5, Slots: slots, Batch: batch, Depth: depth,
			Commands: ((slots+n-1)/n + depth) * batch,
			Coin:     CoinLocal, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		deliveries += res.Deliveries
	}
	runtime.ReadMemStats(&after)
	kibPerK := float64(after.TotalAlloc-before.TotalAlloc) / 1024 * 1000 / float64(deliveries)
	t.Logf("%.2f KiB allocated per k-delivery over %d runs (%d deliveries)", kibPerK, seeds, deliveries)
	if bound := 14.25 * 1.15; kibPerK > bound {
		t.Errorf("%.2f KiB per k-delivery, bound %.2f", kibPerK, bound)
	}
}

package runner

import (
	"runtime"
	"testing"
)

// smrShape runs a small n=16 RunSMR shaped like the benchmark's
// smr_plain_n16 (short commands, plain RBC) or, with 2 KiB commands and
// coded set, like its smr_coded_n16, and reports the deliveries it made.
func smrShape(slots, commandBytes int, coded bool) func(seed int64) (int, error) {
	return func(seed int64) (int, error) {
		const n, batch, depth = 16, 16, 2
		res, err := RunSMR(SMRConfig{
			N: n, F: 5, Slots: slots, Batch: batch, Depth: depth,
			Commands:     ((slots+n-1)/n + depth) * batch,
			CommandBytes: commandBytes, Coded: coded,
			Coin: CoinLocal, Seed: seed,
		})
		if err != nil {
			return 0, err
		}
		return res.Deliveries, nil
	}
}

// perKDelivery runs seeds 1..seeds of run and returns the allocations and
// the bytes allocated per thousand deliveries over all of them.
func perKDelivery(t *testing.T, run func(seed int64) (int, error), seeds int64) (allocs, kib float64) {
	t.Helper()
	var before, after runtime.MemStats
	deliveries := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seed := int64(1); seed <= seeds; seed++ {
		d, err := run(seed)
		if err != nil {
			t.Fatal(err)
		}
		deliveries += d
	}
	runtime.ReadMemStats(&after)
	k := float64(deliveries) / 1000
	return float64(after.Mallocs-before.Mallocs) / k, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / k
}

// TestRunAllocationsPerDelivery holds whole runs — construction, the
// delivery loop, a Byzantine process's traffic and the common coin — to an
// allocation budget per thousand deliveries. The benchmem gate's allocs/op
// is an integer, so a path that allocates on a fraction of its deliveries
// reads 0 there; this test counts every allocation of a block of runs and
// divides by the deliveries they made. The first row is the benchmark's
// sweep_n7 config; the second swaps the liar for a crash mid-protocol; the
// third and fourth are small n=16 RunSMRs shaped like smr_plain_n16 (the
// replicated log's agreement path) and smr_coded_n16 (its coded
// dissemination and the commit of 2 KiB commands). Each bound is the
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
	for _, tt := range []struct {
		name  string
		run   func(seed int64) (deliveries int, err error)
		seeds int64
		bound float64 // measured × 1.15
	}{
		{"liar", consensus(base), 64, 132 * 1.15},
		{"crash-midway", consensus(crash), 64, 217 * 1.15},
		{"smr-plain-n16", smrShape(32, 0, false), 3, 23.1 * 1.15},
		{"smr-coded-n16", smrShape(16, 2048, true), 2, 26.8 * 1.15},
	} {
		t.Run(tt.name, func(t *testing.T) {
			perK, _ := perKDelivery(t, tt.run, tt.seeds)
			t.Logf("%.1f allocs per k-delivery over %d runs", perK, tt.seeds)
			if perK > tt.bound {
				t.Errorf("%.1f allocs per k-delivery, bound %.0f", perK, tt.bound)
			}
		})
	}
}

// TestRunSMRBytesPerDelivery holds the replicated log to a budget of bytes
// allocated per thousand deliveries, on the two RunSMR shapes of
// TestRunAllocationsPerDelivery: the plain one is the per-slot consensus
// instance, its validator and broadcaster, and every message they handle;
// the coded one adds the fragments, the decoded bodies and the committed
// commands. Each bound is the measured value × 1.15.
func TestRunSMRBytesPerDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run allocation count; skipped under -short")
	}
	for _, tt := range []struct {
		name  string
		run   func(seed int64) (deliveries int, err error)
		seeds int64
		bound float64 // KiB, measured × 1.15
	}{
		{"smr-plain-n16", smrShape(32, 0, false), 3, 14.12 * 1.15},
		{"smr-coded-n16", smrShape(16, 2048, true), 2, 55.5 * 1.15},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, kib := perKDelivery(t, tt.run, tt.seeds)
			t.Logf("%.2f KiB allocated per k-delivery over %d runs", kib, tt.seeds)
			if kib > tt.bound {
				t.Errorf("%.2f KiB per k-delivery, bound %.2f", kib, tt.bound)
			}
		})
	}
}

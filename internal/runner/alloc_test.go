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

// restartShape runs an n=16 RestartCatchupSpec shaped like the benchmark's
// smr_ckpt_restart_n16 (common coin, batches of 4, a checkpoint every 8
// slots, one replica killed and revived empty), and reports the deliveries
// it made.
func restartShape(slots int) func(seed int64) (int, error) {
	return func(seed int64) (int, error) {
		cfg := RestartCatchupSpec(16, slots, 8, seed)
		cfg.Coin = CoinCommon
		cfg.Batch = 4
		cfg.Commands = 64
		res, err := RunSMR(cfg)
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
// sweep_n7 config, each seed a Run of its own; the second runs those 64
// seeds through SweepSeeds at two workers as sweep_n7 does, each worker
// re-arming one cluster; the third swaps the liar for a crash
// mid-protocol; the fourth and fifth are small n=16 RunSMRs shaped like
// smr_plain_n16 (the replicated log's agreement path) and smr_coded_n16
// (its coded dissemination and the commit of 2 KiB commands); the sixth is
// a small smr_ckpt_restart_n16 (checkpoints, the common coin's dealers and
// a state transfer). Each bound is the measured value × 1.15.
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
	// sweep runs SweepSeeds over the next 64 seeds at two workers, each
	// re-arming its one cluster from seed to seed.
	sweep := func(cfg Config) func(seed int64) (int, error) {
		return func(call int64) (int, error) {
			seeds := make([]int64, 64)
			for i := range seeds {
				seeds[i] = 64*(call-1) + int64(i) + 1
			}
			results, err := SweepSeeds(cfg, seeds, 2)
			deliveries := 0
			for _, res := range results {
				deliveries += res.Deliveries
			}
			return deliveries, err
		}
	}
	for _, tt := range []struct {
		name  string
		run   func(seed int64) (deliveries int, err error)
		seeds int64
		bound float64 // measured × 1.15
	}{
		{"liar", consensus(base), 64, 132 * 1.15},
		{"liar-sweep", sweep(base), 1, 53.2 * 1.15},
		{"crash-midway", consensus(crash), 64, 217 * 1.15},
		{"smr-plain-n16", smrShape(32, 0, false), 3, 7.6 * 1.15},
		{"smr-coded-n16", smrShape(16, 2048, true), 2, 11.7 * 1.15},
		{"smr-restart-n16", restartShape(32), 2, 26.2 * 1.15},
	} {
		t.Run(tt.name, func(t *testing.T) {
			perK, _ := perKDelivery(t, tt.run, tt.seeds)
			t.Logf("%.1f allocs per k-delivery over %d calls", perK, tt.seeds)
			if perK > tt.bound {
				t.Errorf("%.1f allocs per k-delivery, bound %.0f", perK, tt.bound)
			}
		})
	}
}

// TestRunSMRBytesPerDelivery holds the replicated log to a budget of bytes
// allocated per thousand deliveries, on the three RunSMR shapes of
// TestRunAllocationsPerDelivery: the plain one is each replica's re-armed
// consensus engine and every message it handles; the coded one adds the
// fragments, the decoded bodies and the committed commands; the restart one
// adds checkpoints, coin shares and a state transfer. Each bound is the
// measured value × 1.15.
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
		{"smr-plain-n16", smrShape(32, 0, false), 3, 11.88 * 1.15},
		{"smr-coded-n16", smrShape(16, 2048, true), 2, 53.41 * 1.15},
		{"smr-restart-n16", restartShape(32), 2, 12.44 * 1.15},
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

package runner

import (
	"runtime"
	"testing"
)

// TestRunAllocationsPerDelivery holds whole consensus runs — construction,
// the delivery loop, a Byzantine process's traffic and the common coin — to
// an allocation budget per thousand deliveries. The benchmem gate's
// allocs/op is an integer, so a path that allocates on a fraction of its
// deliveries reads 0 there; this test counts every allocation of a block of
// runs and divides by the deliveries they made. The first row is the
// benchmark's sweep_n7 config; the second swaps the liar for a crash
// mid-protocol. Each bound is the measured value × 1.15.
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
	for _, tt := range []struct {
		name  string
		cfg   Config
		bound float64 // measured × 1.15
	}{
		{"liar", base, 273 * 1.15},
		{"crash-midway", crash, 356 * 1.15},
	} {
		t.Run(tt.name, func(t *testing.T) {
			const seeds = 64
			var before, after runtime.MemStats
			deliveries := 0
			runtime.GC()
			runtime.ReadMemStats(&before)
			for seed := int64(1); seed <= seeds; seed++ {
				cfg := tt.cfg
				cfg.Seed = seed
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				deliveries += res.Deliveries
			}
			runtime.ReadMemStats(&after)
			perK := float64(after.Mallocs-before.Mallocs) * 1000 / float64(deliveries)
			t.Logf("%.1f allocs per k-delivery over %d runs (%d deliveries)", perK, seeds, deliveries)
			if perK > tt.bound {
				t.Errorf("%.1f allocs per k-delivery, bound %.0f", perK, tt.bound)
			}
		})
	}
}

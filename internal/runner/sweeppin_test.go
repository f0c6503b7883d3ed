package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"repro/internal/types"
)

// pinGrid is TestSweepSeedsPinned's grid: every scheduler family × both
// protocols × every coin × every named adversary at n=4, with proposals
// drawn from the seed on alternate adversaries, plus the benchmark's n=7
// sweep_n7 config and an n=4 row whose delivery budget runs out.
func pinGrid() []Config {
	var cfgs []Config
	for sched := SchedUniform; sched <= SchedAdaptiveRush; sched++ {
		for proto := ProtocolBracha; proto <= ProtocolBenOr; proto++ {
			for c := CoinLocal; c <= CoinIdeal; c++ {
				for adv := AdvNone; adv <= AdvCrashMidway; adv++ {
					inputs := InputRandom
					if adv%2 == 0 {
						inputs = InputSplit
					}
					cfgs = append(cfgs, Config{
						N: 4, F: 1, Byzantine: -1,
						Protocol: proto, Coin: c, Adversary: adv, Scheduler: sched,
						Inputs: inputs, MaxDeliveries: 4000,
					})
				}
			}
		}
	}
	return append(cfgs,
		Config{
			N: 7, F: 2, Byzantine: -1,
			Protocol: ProtocolBracha, Coin: CoinCommon,
			Adversary: AdvLiar, Scheduler: SchedRushByz,
			Inputs: InputSplit,
		},
		Config{
			N: 4, F: 1, Byzantine: -1,
			Protocol: ProtocolBracha, Coin: CoinCommon,
			Adversary: AdvEquivocator, Scheduler: SchedReorder,
			Inputs: InputRandom, MaxDeliveries: 150,
		})
}

// hashResult folds every field of a consensus Result into h, maps in
// process order and the mean by its bits.
func hashResult(h hash.Hash, res *Result) {
	put := func(vs ...int64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
		}
	}
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	put(res.Config.Seed, int64(len(res.Decisions)), int64(len(res.Rounds)))
	ids := make([]types.ProcessID, 0, len(res.Decisions))
	// order-free: sorted below
	for p := range res.Decisions {
		ids = append(ids, p)
	}
	slices.Sort(ids)
	for _, p := range ids {
		put(int64(p), int64(res.Decisions[p]))
	}
	ids = ids[:0]
	// order-free: sorted below
	for p := range res.Rounds {
		ids = append(ids, p)
	}
	slices.Sort(ids)
	for _, p := range ids {
		put(int64(p), int64(res.Rounds[p]))
	}
	put(int64(math.Float64bits(res.MeanRounds)), int64(res.MaxRound), b(res.AllDecided),
		int64(res.Messages), int64(res.Deliveries), int64(res.EndTime), res.WireBytes,
		int64(res.Dropped), int64(res.Spoofed), b(res.Exhausted),
		int64(res.PrunedLate), int64(res.RBCCompacted),
		int64(res.JustificationsRetained), int64(res.DealerRoundsRetained),
		int64(len(res.Violations)))
	for _, v := range res.Violations {
		fmt.Fprintf(h, "%v\n", v)
	}
}

// TestSweepSeedsPinned pins what SweepSeeds returns over pinGrid, seeds
// 1..4 of each config, at one worker and at three: a SHA-256 over every
// field of every Result. A worker runs several seeds of one config in a
// row, so this holds a worker's later runs to what a fresh run of the same
// seed gives; most runs stop on their stop predicate with mail still
// queued, and the last config's runs exhaust their delivery budget.
func TestSweepSeedsPinned(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	h := sha256.New()
	exhausted := 0
	for _, cfg := range pinGrid() {
		for _, workers := range []int{1, 3} {
			results, err := SweepSeeds(cfg, seeds, workers)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			for _, res := range results {
				hashResult(h, res)
				if res.Exhausted {
					exhausted++
				}
			}
		}
	}
	if exhausted == 0 {
		t.Error("no run exhausted its delivery budget")
	}
	const want = "fba036494edf67590ed07adbc0f9357ec8010d2a726545e3f0ffc1ca05aecc1e"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("sweep digest:\n got %s\nwant %s", got, want)
	}
}

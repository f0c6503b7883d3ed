package runner

import (
	"fmt"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// TestConsensusN64Pinned pins the scale point: the benchmark's consensus_n64
// configuration (n=64, f=21, silent faults, common coin, FIFO links) at its
// first seed. It is the only golden above n=7, so it is the one that holds the
// event queue's multi-chunk buckets and the FIFO scheduler's 64×64 link table
// to the exact execution: ~836 k sends and ~490 k deliveries, every one of
// which moves the numbers below if it lands at another tick or in another
// order.
func TestConsensusN64Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("n=64 run (~490 k deliveries); skipped under -short")
	}
	res, err := Run(Config{
		N: 64, F: quorum.MaxByzantine(64), Byzantine: -1,
		Protocol: ProtocolBracha, Coin: CoinCommon,
		Adversary: AdvSilent, Scheduler: SchedFIFO,
		Inputs: InputSplit, Seed: 1_000_003,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("msgs=%d deliveries=%d dropped=%d end=%d wire=%d exhausted=%v",
		res.Messages, res.Deliveries, res.Dropped, res.EndTime, res.WireBytes, res.Exhausted)
	const want = "msgs=836800 deliveries=489626 dropped=275279 end=378 wire=10112467 exhausted=false"
	if got != want {
		t.Errorf("run summary:\n got %s\nwant %s", got, want)
	}
	// The 43 correct processes (IDs 1..43; the silent 21 are 44..64) all
	// decide 0 in round 1.
	correct := 64 - quorum.MaxByzantine(64)
	if len(res.Decisions) != correct || len(res.Rounds) != correct {
		t.Fatalf("%d decisions, %d rounds, want %d of each", len(res.Decisions), len(res.Rounds), correct)
	}
	for p := types.ProcessID(1); p <= types.ProcessID(correct); p++ {
		v, ok := res.Decisions[p]
		if r := res.Rounds[p]; !ok || v != types.Zero || r != 1 {
			t.Errorf("%v decided %v (present %v) in round %d, want 0 in round 1", p, v, ok, r)
		}
	}
}

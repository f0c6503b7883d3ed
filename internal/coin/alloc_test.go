package coin

import (
	"runtime"
	"testing"

	"repro/internal/types"
)

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCommonRoundAllocations pins the common coin's per-round cost at n=7
// and n=64. Dealing a round makes four allocations at both sizes: Split's
// share slice and Y array, the record's string of shares and MACs, and its
// payload block. Once the round is dealt, every endpoint's Release and
// HandleShare, and the Prune that turns the round over, allocate nothing:
// the endpoints are warm, as a node's endpoint is from its fourth round on
// (and a re-armed one from its first), so round records come from the free
// list, the free list has grown, and the broadcast and reconstruction
// scratch is sized. The counts
// are exact; a race-detector build only logs them.
func TestCommonRoundAllocations(t *testing.T) {
	const wantDeal = 4
	for _, n := range []int{7, 64} {
		d, cs := newCommonSet(t, n, (n-1)/3, 5)
		out := make([][]types.Message, n)
		for r := 1; r <= 8; r++ {
			// The core prunes with floor r−1 on entering round r.
			turnover := mallocs(func() {
				d.Prune(r - 1)
				for _, c := range cs {
					c.Prune(r - 1)
				}
			})
			deal := mallocs(func() { d.ShareFor(1, r) })
			release := mallocs(func() {
				for i, c := range cs {
					out[i] = c.Release(r)
				}
			})
			handle := mallocs(func() {
				for _, msgs := range out {
					for _, m := range msgs {
						cs[m.To-1].HandleShare(m.From, m.Payload.(*types.CoinSharePayload))
					}
				}
			})
			want, _ := cs[0].Value(r)
			for i, c := range cs {
				if v, ok := c.Value(r); !ok || v != want {
					t.Fatalf("n=%d round %d: p%d has %v, %v; p1 has %v", n, r, i+1, v, ok, want)
				}
			}
			if r < 4 {
				continue // the endpoints' first records, free list and scratch
			}
			t.Logf("n=%d round %d: deal %d, Release %d, HandleShare %d, Prune %d allocations",
				n, r, deal, release, handle, turnover)
			if !raceEnabled && (deal != wantDeal || release != 0 || handle != 0 || turnover != 0) {
				t.Errorf("n=%d round %d: deal %d (want %d), Release %d, HandleShare %d, Prune %d (want 0)",
					n, r, deal, wantDeal, release, handle, turnover)
			}
		}
	}
}

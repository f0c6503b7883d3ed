package coin

import (
	"encoding/binary"
	"testing"

	"repro/internal/auth"
	"repro/internal/quorum"
	"repro/internal/types"
)

// refShareMAC is the MAC a seed's dealer owes (p, round, share), computed
// from scratch: the dealer secret, the share key derived from it, and one
// fresh HMAC.
func refShareMAC(seed int64, p types.ProcessID, round int, share string) string {
	secret := auth.DeriveKey(seedKey(seed), "dealer")
	msg := binary.BigEndian.AppendUint64(nil, uint64(int64(p)))
	msg = binary.BigEndian.AppendUint64(msg, uint64(int64(round)))
	msg = append(msg, share...)
	return string(auth.MAC(auth.DeriveKey(secret, "share"), msg))
}

// TestDealerShareMACMatchesReference: the dealer's keyed, reused MAC state
// signs exactly what a fresh key derivation and HMAC would, call after call.
func TestDealerShareMACMatchesReference(t *testing.T) {
	const seed = 5
	d := NewDealer(quorum.MustNew(7, 2), seed)
	for _, tt := range []struct {
		p     types.ProcessID
		round int
		share string
	}{
		{1, 1, "\x01\x00"},
		{7, 3, "\x07\xff"},
		{3, 1 << 40, "\x03" + string(make([]byte, 100))},
		{-1, -5, "x"},
		{0, 0, ""},
		{1, 1, "\x01\x00"}, // a repeat after longer messages
	} {
		want := refShareMAC(seed, tt.p, tt.round, tt.share)
		if got := string(d.keys.AppendSignShare(nil, tt.p, tt.round, tt.share)); got != want {
			t.Errorf("AppendSignShare(%v, %d, %q) = %x, want %x", tt.p, tt.round, tt.share, got, want)
		}
		if !d.VerifyShare(tt.p, tt.round, tt.share, want) {
			t.Errorf("VerifyShare rejected the reference MAC of (%v, %d, %q)", tt.p, tt.round, tt.share)
		}
	}
	for round := 1; round <= 3; round++ {
		for p := types.ProcessID(1); p <= 7; p++ {
			share, mac := d.ShareFor(p, round)
			if want := refShareMAC(seed, p, round, share); mac != want {
				t.Errorf("ShareFor(%v, %d) MAC = %x, want %x", p, round, mac, want)
			}
		}
	}
}

// TestHandleShareAllocFree: a forged share and a genuine one cost no
// allocation through HandleShare — verifying reuses the dealer's keyed MAC
// state, and a stored share is kept as the string it arrived in — so a
// Byzantine flood of forged shares makes no garbage.
func TestHandleShareAllocFree(t *testing.T) {
	spec := quorum.MustNew(10, 3) // threshold 4: three stored shares do not reconstruct
	peers := types.Processes(10)
	d := NewDealer(spec, 9)
	c := NewCommon(1, peers, d)
	share := func(p types.ProcessID) *types.CoinSharePayload {
		s, mac := d.ShareFor(p, 1)
		return &types.CoinSharePayload{Round: 1, Share: s, MAC: mac}
	}
	c.HandleShare(2, share(2)) // the round's share set exists
	forged := share(3)
	forged.MAC = forged.MAC[:5] + string(forged.MAC[5]^1) + forged.MAC[6:]
	if allocs := testing.AllocsPerRun(100, func() { c.HandleShare(3, forged) }); allocs != 0 {
		t.Errorf("forged share cost %.1f allocs, want 0", allocs)
	}
	// Each call stores a fresh sender's share; the warm-up call takes 3.
	fresh := []*types.CoinSharePayload{share(3), share(4)}
	next := 0
	if allocs := testing.AllocsPerRun(1, func() { c.HandleShare(types.ProcessID(3+next), fresh[next]); next++ }); allocs != 0 {
		t.Errorf("genuine share cost %.1f allocs, want 0", allocs)
	}
	if _, ok := c.Value(1); ok {
		t.Fatal("three shares reconstructed a threshold-4 coin")
	}
	c.HandleShare(5, share(5))
	if _, ok := c.Value(1); !ok {
		t.Error("four genuine shares did not reconstruct the coin")
	}
}

// TestDealerMACsInterleaved: ShareFor and VerifyShare interleaved across
// processes and rounds on one dealer (its MAC state is reused by every call)
// still sign and verify exactly as a fresh MAC would.
func TestDealerMACsInterleaved(t *testing.T) {
	const seed = 3
	d := NewDealer(quorum.MustNew(7, 2), seed)
	for i := 0; i < 800; i++ {
		p, round := types.ProcessID(1+i%7), 1+i%5
		share, mac := d.ShareFor(p, round)
		if want := refShareMAC(seed, p, round, share); mac != want {
			t.Fatalf("ShareFor(%v, %d) MAC = %x, want %x", p, round, mac, want)
		}
		if !d.VerifyShare(p, round, share, mac) {
			t.Fatalf("VerifyShare rejected the genuine share of (%v, %d)", p, round)
		}
		if d.VerifyShare(p+1, round, share, mac) {
			t.Fatalf("VerifyShare accepted (%v, %d)'s share as %v's", p, round, p+1)
		}
	}
}

package coin

// Low-watermark tests for the dealer: pruning must release memoized
// sharings, refuse to re-deal pruned rounds (a re-deal would mint shares
// whose MACs contradict ones already on the wire), and leave the dealing
// stream of live rounds byte-identical to an unpruned dealer's.

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

func TestDealerPruneReleasesRounds(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	d := NewDealer(spec, 11)
	for r := 1; r <= 8; r++ {
		if s, _ := d.ShareFor(1, r); s == "" {
			t.Fatalf("round %d: empty share before pruning", r)
		}
	}
	if got := d.RoundsRetained(); got != 8 {
		t.Fatalf("RoundsRetained = %d, want 8", got)
	}
	d.Prune(6)
	if got := d.RoundsRetained(); got != 3 {
		t.Errorf("RoundsRetained after Prune(6) = %d, want 3 (rounds 6..8)", got)
	}
	// The watermark never regresses.
	d.Prune(2)
	if got := d.RoundsRetained(); got != 3 {
		t.Errorf("Prune(2) after Prune(6) changed retention: %d, want 3", got)
	}
}

// TestDealerPrunedRoundNeverRedealt: asking for a pruned round returns
// empty strings and must not touch the RNG — the sharings of rounds dealt
// afterwards stay identical to an unpruned dealer's, which is what keeps
// replays byte-stable under the low-watermark.
func TestDealerPrunedRoundNeverRedealt(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	pruned := NewDealer(spec, 42)
	plain := NewDealer(spec, 42)
	for r := 1; r <= 5; r++ {
		ps, pm := pruned.ShareFor(2, r)
		qs, qm := plain.ShareFor(2, r)
		if ps != qs || pm != qm {
			t.Fatalf("round %d: dealers with one seed disagree before pruning", r)
		}
	}
	pruned.Prune(4)
	if s, m := pruned.ShareFor(2, 2); s != "" || m != "" {
		t.Errorf("pruned round 2 re-dealt: share %q mac %q, want empty", s, m)
	}
	if v := pruned.SecretFor(2); v != types.Zero {
		t.Errorf("pruned round 2 secret = %v, want zero value", v)
	}
	// Rounds dealt after the prune must match the unpruned stream exactly:
	// the refusal above consumed no randomness.
	for r := 6; r <= 10; r++ {
		ps, pm := pruned.ShareFor(2, r)
		qs, qm := plain.ShareFor(2, r)
		if ps == "" || ps != qs || pm != qm {
			t.Errorf("round %d: post-prune dealing diverged from the unpruned stream", r)
		}
	}
}

// TestDealerVerifiesSharesForPrunedRounds: verification is keyed by round-
// independent MAC keys, so a straggler's ancient share still verifies after
// the sharing itself was released — the catch-up half of the dealer's
// pruning contract (the per-process endpoints drop such shares by their
// own floor before any lookup).
func TestDealerVerifiesSharesForPrunedRounds(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	d := NewDealer(spec, 7)
	share, mac := d.ShareFor(3, 1)
	if share == "" {
		t.Fatal("no share for round 1")
	}
	d.Prune(10)
	if !d.VerifyShare(3, 1, share, mac) {
		t.Error("genuine share for a pruned round no longer verifies")
	}
	if d.VerifyShare(2, 1, share, mac) {
		t.Error("share verified for the wrong process after pruning")
	}
}

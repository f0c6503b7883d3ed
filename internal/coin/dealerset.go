package coin

import (
	"maps"

	"repro/internal/quorum"
)

// DealerSet manages the per-slot dealers of a replicated log. Every slot's
// consensus instance needs its own dealer (instances must not share coin
// state; see core.Config.Instance), so a long-lived log accumulates one
// dealer — sharings and MAC keys — per slot ever started: the last
// cluster-shared retainer that grows without bound on infinite executions.
//
// ReleaseBelow is the checkpoint hook that retires them: once a cut is
// certified, no correct process will ever run (or re-run) a slot below it —
// a process missing those slots is served state transfer, not consensus —
// so the dealers below the cut are dead. Release is idempotent and, unlike
// a round-level dealer prune, may safely "re-create" a released dealer on a
// late For call: per-slot seeds are derived deterministically, so a
// re-created dealer deals bit-identical sharings and its MACs agree with
// every share already on the wire. (Contrast Dealer.Prune, where re-dealing
// *within* one dealer would contradict distributed shares; here the whole
// dealer is reconstructed from its seed, not re-randomized.)
type DealerSet struct {
	spec    quorum.Spec
	seed    int64
	dealers map[int]*Dealer
	floor   int
}

// NewDealerSet creates a per-slot dealer registry deterministically derived
// from seed.
func NewDealerSet(spec quorum.Spec, seed int64) *DealerSet {
	return &DealerSet{
		spec:    spec,
		seed:    seed,
		dealers: make(map[int]*Dealer),
	}
}

// slotSeed mixes the base seed with the slot (splitmix64-style) so per-slot
// dealers draw independent, reproducible randomness.
func slotSeed(seed int64, slot int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(int64(slot))*0xBF58476D1CE4E5B9 + 0x2545F4914F6CDD1D
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}

// For returns the dealer of one slot, creating it on first use. Slots below
// the release floor are reconstructed deterministically but re-memoized (a
// straggler verifying ancient shares gets identical answers), to be released
// again by the next ReleaseBelow.
func (s *DealerSet) For(slot int) *Dealer {
	d, ok := s.dealers[slot]
	if !ok {
		d = NewDealer(s.spec, slotSeed(s.seed, slot))
		s.dealers[slot] = d
	}
	return d
}

// ReleaseBelow drops every dealer for slots below the cut, returning how
// many it released. The caller asserts a certified checkpoint covers the
// released slots (see the type comment for why re-creation is nevertheless
// safe).
func (s *DealerSet) ReleaseBelow(cut int) int {
	if cut > s.floor {
		s.floor = cut
	}
	before := len(s.dealers)
	maps.DeleteFunc(s.dealers, func(slot int, _ *Dealer) bool { return slot < s.floor })
	return before - len(s.dealers)
}

// DealersRetained returns how many per-slot dealers the set currently holds
// — bounded by the spread between the live frontier and the certified cut
// under checkpoint-driven release, linear in slots without it.
func (s *DealerSet) DealersRetained() int {
	return len(s.dealers)
}

// RoundsRetained sums the memoized per-round sharings across all retained
// dealers (the E12 "dealer rounds" column).
func (s *DealerSet) RoundsRetained() int {
	total := 0
	// order-free: a sum
	for _, d := range s.dealers {
		total += d.RoundsRetained()
	}
	return total
}

// Package coin provides the randomization sources of Bracha's protocol:
//
//   - Local: each process flips a private fair coin (what the PODC-84
//     protocol assumes by default, following Ben-Or). Termination holds with
//     probability 1, but a full-information adversary can keep disagreement
//     alive for an expected-exponential number of rounds.
//   - Common: a Rabin-style predistributed common coin. A trusted dealer
//     Shamir-shares one random bit per round (threshold f+1, so f Byzantine
//     processes learn nothing); processes exchange authenticated shares when
//     the protocol releases the coin and reconstruct the same bit. This is
//     the variant that gives constant expected rounds.
//   - Ideal: a common coin that is immediate and sends no messages: every
//     process holds the same seed. Unit tests use it to isolate consensus
//     logic from coin mechanics, and so do `bench run -coin ideal`, SMR's
//     CoinIdeal and the split-brain adversary, which exploits its
//     predictability.
//
// Local and Ideal are one type: a seed and a bit per round. NewLocal and
// NewIdeal differ only in how the caller hands out seeds.
//
// All coins are deterministic functions of their seeds, keeping experiment
// runs reproducible.
//
// # Pruning contract
//
// Per-round coin state is pruned at two levels. Each process's Common
// endpoint implements Pruner, which the consensus core calls with floor r−1
// on entering round r: shares, release flags and values below the floor go
// (their round records are cleared for reuse by later rounds), and a late
// share for a pruned round is dropped on arrival — the silence an unpruned
// endpoint would have answered it with. The shared Dealer is pruned by the
// cluster's minimum current round instead, because a round one straggler
// still needs must stay dealt until it passes; see Dealer for why pruned
// rounds are never re-dealt, and why a dealt round's record is never
// reused.
package coin

import (
	"repro/internal/types"
)

// Coin is the interface the consensus core uses. Implementations are driven
// entirely by the node's event loop: no goroutines, no clocks.
type Coin interface {
	// Release begins obtaining the coin for a round and returns any
	// messages to send (share broadcasts for the common coin). Calling
	// Release again for the same round is a no-op. The returned slice may
	// be a buffer the coin owns, valid only until its next Release: the
	// caller copies the messages out before calling Release again.
	Release(round int) []types.Message
	// HandleShare processes an incoming coin-share payload. Invalid or
	// irrelevant shares are ignored (Byzantine shares must not block or
	// bias reconstruction).
	HandleShare(from types.ProcessID, p *types.CoinSharePayload)
	// Value returns the coin for the round, if available. Local coins are
	// always available; the common coin becomes available once f+1 valid
	// shares for the round arrived (after Release).
	Value(round int) (types.Value, bool)
}

// Pruner is an optional Coin extension for per-round state pruning. Prune
// releases every per-round resource (stored shares, MACs, memoized values)
// for rounds below the floor, and drops late shares for those rounds on
// arrival instead of storing them. The consensus core calls it as rounds
// decide, so long executions keep only two rounds of coin state; a
// pruned round's value must never be asked for again (the core only queries
// its current round). The seeded coin (Local, Ideal) has no per-round state
// and simply doesn't implement it.
type Pruner interface {
	Prune(below int)
}

// mix64 is SplitMix64's finalizer: a bijective avalanche mix used to derive
// independent-looking bits from (seed, round) pairs deterministically.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// bitFor derives a fair bit from a seed and round.
func bitFor(seed int64, round int) types.Value {
	return types.Value(mix64(mix64(uint64(seed))^uint64(round)) & 1)
}

// Local is the seeded coin: no messages, and every round's bit is available
// at once, derived from the seed and the round. Processes holding distinct
// seeds flip privately (NewLocal); processes holding one seed see one
// common bit (NewIdeal).
type Local struct {
	seed int64
}

// NewLocal returns a private coin for one process. Distinct processes must
// use distinct seeds (the harness derives them from the run seed and the
// process ID).
func NewLocal(seed int64) *Local { return &Local{seed: seed} }

// NewIdeal returns an ideal common coin: give every process the same seed
// and all observe the same bit, immediately. It deliberately has no
// unpredictability — adversarial tests exploit exactly that to script
// worst-case schedules.
func NewIdeal(seed int64) *Local { return &Local{seed: seed} }

// Release implements Coin (no messages needed).
func (l *Local) Release(int) []types.Message { return nil }

// HandleShare implements Coin (a seeded coin has no shares).
func (l *Local) HandleShare(types.ProcessID, *types.CoinSharePayload) {}

// Value implements Coin; a seeded coin is always available.
func (l *Local) Value(round int) (types.Value, bool) { return bitFor(l.seed, round), true }

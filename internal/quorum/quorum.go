// Package quorum centralizes the threshold arithmetic of Bracha's protocol
// suite. Every magic number of the paper — n−f waits, 2f+1 decision quorums,
// f+1 adoption/amplification thresholds, >n/2 supermajorities, and the
// reliable-broadcast echo threshold ⌈(n+f+1)/2⌉ — lives here, so protocol
// code states intent (`q.Decide()`) instead of arithmetic.
//
// # Membership
//
// The n processes of a Spec are 1..n (types.Processes(n)), a fixed set known
// to all. CheckPeers accepts exactly that list, in that order, and every
// node constructor of the suite runs it. Index maps a process to its slot
// p−1 among the peers, and it is the only such map: every per-peer table
// (rbc's tallies and instance window, the DECIDE gadget, Ben-Or's step
// tallies, ACS's proposer slots, checkpoint MAC vectors, coin shares) uses
// it. Only peers vote: a sender that Index rejects counts toward none of
// the thresholds below.
package quorum

import (
	"errors"
	"fmt"

	"repro/internal/types"
)

// Spec and membership errors.
var (
	// ErrInvalid is returned by New for nonsensical (n, f) combinations.
	ErrInvalid = errors.New("quorum: invalid system size")
	// ErrBadPeers is returned by CheckPeers for a peer list that is not
	// 1..n with me among them.
	ErrBadPeers = errors.New("quorum: peers must be 1..n and include me")
)

// Spec captures the failure assumption of a run: n processes of which at most
// f may be Byzantine. The zero value is invalid; construct with New.
//
// Spec does not require f < n/3: experiment E7 deliberately instantiates
// over-optimistic specs (more actual faults than assumed) to demonstrate the
// tightness of the resilience bound. MaxByzantine gives the bound itself.
type Spec struct {
	n int
	f int
}

// New returns a Spec for n processes tolerating f Byzantine faults.
// It requires n ≥ 1, f ≥ 0, and f < n (at least one correct process);
// it does not require the Byzantine bound f < n/3 (see Spec).
func New(n, f int) (Spec, error) {
	switch {
	case n < 1:
		return Spec{}, fmt.Errorf("%w: n = %d", ErrInvalid, n)
	case f < 0:
		return Spec{}, fmt.Errorf("%w: f = %d", ErrInvalid, f)
	case f >= n:
		return Spec{}, fmt.Errorf("%w: f = %d with n = %d leaves no correct process", ErrInvalid, f, n)
	}
	return Spec{n: n, f: f}, nil
}

// MustNew is New for statically known good parameters; it panics on error.
// Intended for tests and examples only.
func MustNew(n, f int) Spec {
	s, err := New(n, f)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the total number of processes.
func (s Spec) N() int { return s.n }

// F returns the assumed maximum number of Byzantine processes.
func (s Spec) F() int { return s.f }

// Quorum returns n−f, the number of messages a process waits for at each
// protocol step: the most it can expect without risking waiting on a
// Byzantine process forever.
func (s Spec) Quorum() int { return s.n - s.f }

// Decide returns 2f+1, the number of matching D(v) step-3 messages (or
// DECIDE gadget messages) required to decide: any two (n−f)-sets intersect in
// ≥ n−2f ≥ f+1 processes, so 2f+1 witnesses guarantee every other correct
// process sees at least f+1 of them.
func (s Spec) Decide() int { return 2*s.f + 1 }

// Adopt returns f+1, the number of matching witnesses that guarantees at
// least one correct process among them (adoption threshold in step 3 and the
// relay threshold of the READY / DECIDE amplifications).
func (s Spec) Adopt() int { return s.f + 1 }

// SuperMajority returns ⌊n/2⌋+1, the smallest count strictly greater than
// n/2 (the step-2 decision-proposal threshold).
func (s Spec) SuperMajority() int { return s.n/2 + 1 }

// Echo returns ⌈(n+f+1)/2⌉, the reliable-broadcast echo threshold: two
// echo quorums for different bodies would need n+f+1 distinct echoes, more
// than the n+f signatures-worth of echo power even Byzantine processes can
// muster, so at most one body can reach it.
func (s Spec) Echo() int { return (s.n + s.f + 2) / 2 }

// HonestSuperMajority returns ⌊(n+f)/2⌋+1, the Ben-Or baseline's phase
// threshold (strictly more than (n+f)/2 matching values).
func (s Spec) HonestSuperMajority() int { return (s.n+s.f)/2 + 1 }

// CheckPeers reports, wrapping ErrBadPeers, a peer list that is not exactly
// 1..N() in order, or a me outside it — the membership every node
// constructor of the suite requires (see "Membership" in the package doc).
func (s Spec) CheckPeers(me types.ProcessID, peers []types.ProcessID) error {
	if len(peers) != s.n {
		return fmt.Errorf("%w: %d peers for %v", ErrBadPeers, len(peers), s)
	}
	for i, p := range peers {
		if p != types.ProcessID(i+1) {
			return fmt.Errorf("%w: peer %d is %v", ErrBadPeers, i, p)
		}
	}
	if _, ok := s.Index(me); !ok {
		return fmt.Errorf("%w: %v not in peers", ErrBadPeers, me)
	}
	return nil
}

// Index returns p's slot p−1 among the peers 1..N(), and ok = false (with
// slot −1) for a process outside them. It is the one peer index every
// per-peer table uses.
func (s Spec) Index(p types.ProcessID) (int, bool) {
	if p < 1 || int(p) > s.n {
		return -1, false
	}
	return int(p) - 1, true
}

// String implements fmt.Stringer.
func (s Spec) String() string { return fmt.Sprintf("n=%d f=%d", s.n, s.f) }

// MaxByzantine returns ⌊(n−1)/3⌋, the largest f Bracha's protocol tolerates
// for a given n — the paper's optimal resilience.
func MaxByzantine(n int) int {
	if n < 1 {
		return 0
	}
	return (n - 1) / 3
}

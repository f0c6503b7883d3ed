package sim

import (
	"math/rand"

	"repro/internal/types"
)

// AdaptiveDelay is an adaptive adversary schedule: the scheduler sees every
// message, so it reconstructs each correct process's protocol round from the
// traffic it carries and targets extra delay at whichever correct process is
// closest to the decision frontier — the one whose observed round is
// highest. The classical uniform adversary spreads its delay blindly; this
// one concentrates it exactly where progress is being made, re-aiming as the
// frontier moves, which is the strongest position a scheduling-only
// adversary has.
//
// With Rush set, the Byzantine colluders' traffic is additionally rushed —
// but only when addressed to the current victim: the traffic-triggered
// variant of the classic rush rule. Instead of always arriving first
// everywhere, hostile messages arrive first precisely where the protocol is
// hottest, so the victim observes Byzantine traffic ahead of its own
// quorum's.
//
// Everything is a deterministic function of the observed message sequence
// and the run RNG, so adaptive runs replay exactly. Delays are bounded
// (TargetLag per message), so eventual delivery — the asynchronous model's
// only guarantee — still holds.
type AdaptiveDelay struct {
	base      UniformDelay
	targetLag Time
	rush      bool

	byz         map[types.ProcessID]bool
	round       map[types.ProcessID]int
	victim      types.ProcessID // 0 until any round is observed
	victimRound int
}

// NewAdaptive returns an adaptive-adversary scheduler over the given base
// delay. byz names the Byzantine colluders: their traffic never moves the
// frontier estimate (an adversary does not chase its own noise), and with
// rush set it is rushed at the victim.
func NewAdaptive(base UniformDelay, targetLag Time, rush bool, byz []types.ProcessID) *AdaptiveDelay {
	set := make(map[types.ProcessID]bool, len(byz))
	for _, p := range byz {
		set[p] = true
	}
	return &AdaptiveDelay{
		base:      base,
		targetLag: targetLag,
		rush:      rush,
		byz:       set,
		round:     make(map[types.ProcessID]int),
	}
}

// Deliver implements Scheduler.
func (s *AdaptiveDelay) Deliver(m types.Message, now Time, seq uint64, rng *rand.Rand) Time {
	if r, ok := payloadRound(m.Payload); ok && !s.byz[m.From] {
		if r > s.round[m.From] {
			s.round[m.From] = r
			// The victim is the correct process at the highest observed
			// round; ties break toward the lowest ID, so the choice is a
			// pure function of the observation sequence.
			if r > s.victimRound || (r == s.victimRound && (s.victim == 0 || m.From < s.victim)) {
				s.victim, s.victimRound = m.From, r
			}
		}
	}
	at := s.base.Deliver(m, now, seq, rng)
	if m.To != s.victim || s.victim == 0 {
		return at
	}
	if s.rush && s.byz[m.From] {
		return now // traffic-triggered rush: hostile traffic lands first at the frontier
	}
	return at + s.targetLag
}

// payloadRound extracts the protocol round a message speaks for, when it has
// one — the adaptive adversary's only sensor.
func payloadRound(p types.Payload) (int, bool) {
	if id, ok := types.BroadcastID(p); ok {
		return id.Tag.Round, true
	}
	switch v := p.(type) {
	case *types.CoinSharePayload:
		return v.Round, true
	case *types.PlainPayload:
		return v.Round, true
	default:
		return 0, false
	}
}

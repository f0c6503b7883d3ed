package adversary

import (
	"repro/internal/sim"
	"repro/internal/types"
)

// PlainEquivocator attacks the Ben-Or baseline, which exchanges raw
// point-to-point messages with no reliable broadcast: the attacker tells the
// first half of the peers one value and the second half the other, in every
// slot it observes — including conflicting phase-2 decision proposals. This
// is precisely the equivocation that reliable broadcast exists to prevent,
// and it is what drags Ben-Or down once f reaches n/5 (experiment E6).
type PlainEquivocator struct {
	Me    types.ProcessID
	Peers []types.ProcessID

	acted map[plainSlot]bool
}

type plainSlot struct {
	round int
	phase types.Step
}

var _ sim.Node = (*PlainEquivocator)(nil)

// NewPlainEquivocator creates the Ben-Or attacker.
func NewPlainEquivocator(me types.ProcessID, peers []types.ProcessID) *PlainEquivocator {
	return &PlainEquivocator{Me: me, Peers: peers, acted: make(map[plainSlot]bool)}
}

// ID implements sim.Node.
func (e *PlainEquivocator) ID() types.ProcessID { return e.Me }

// Start implements sim.Node. It forgets every slot of an earlier run, so a
// PlainEquivocator registered once runs again from nothing.
func (e *PlainEquivocator) Start() []types.Message {
	clear(e.acted)
	return e.equivocate(plainSlot{round: 1, phase: types.Step1})
}

// Deliver implements sim.Node: join (and poison) every slot it sees.
func (e *PlainEquivocator) Deliver(m types.Message) []types.Message {
	p, ok := m.Payload.(*types.PlainPayload)
	if !ok {
		return nil
	}
	if p.Round < 1 || (p.Step != types.Step1 && p.Step != types.Step2) {
		return nil
	}
	return e.equivocate(plainSlot{round: p.Round, phase: p.Step})
}

// Done implements sim.Node.
func (e *PlainEquivocator) Done() bool { return false }

func (e *PlainEquivocator) equivocate(s plainSlot) []types.Message {
	if e.acted[s] {
		return nil
	}
	e.acted[s] = true
	out := make([]types.Message, 0, len(e.Peers))
	half := len(e.Peers) / 2
	for i, peer := range e.Peers {
		v := types.Zero
		if i >= half {
			v = types.One
		}
		out = append(out, types.Message{
			From: e.Me,
			To:   peer,
			Payload: &types.PlainPayload{
				Round: s.round,
				Step:  s.phase,
				V:     v,
				D:     s.phase == types.Step2, // conflicting decision proposals
			},
		})
	}
	return out
}

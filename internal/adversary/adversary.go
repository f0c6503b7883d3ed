// Package adversary implements Byzantine process behaviours for fault
// injection. Each strategy is a sim.Node that deviates from the protocol in
// a characteristic way:
//
//   - Silent: crashes at time zero (the paper's minimal fault).
//   - DecideForger: floods forged DECIDE gadget messages, probing the f+1
//     amplification threshold.
//   - Equivocator: attacks reliable broadcast — conflicting SENDs to
//     different halves of the system plus double ECHOs/READYs for every
//     instance it observes.
//   - Liar: runs the real consensus state machine but flips the value in
//     every step message it originates — the strongest *plausible* attacker,
//     since its traffic is protocol-shaped and must be defeated by
//     validation rather than by pattern-matching.
//   - SplitBrain: runs one correct-looking personality per partition of the
//     correct processes, showing each side a unanimous world with a
//     different value. Against a correctly-sized system it is harmless;
//     with f beyond ⌊(n−1)/3⌋ it produces real agreement violations
//     (experiment E7, the tightness of the resilience bound).
package adversary

import (
	"fmt"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// Silent is a process that crashed before sending anything.
type Silent struct {
	Me types.ProcessID
}

var _ sim.Node = (*Silent)(nil)

// ID implements sim.Node.
func (s *Silent) ID() types.ProcessID { return s.Me }

// Start implements sim.Node.
func (s *Silent) Start() []types.Message { return nil }

// Deliver implements sim.Node.
func (s *Silent) Deliver(types.Message) []types.Message { return nil }

// Done implements sim.Node.
func (s *Silent) Done() bool { return false }

// DecideForger broadcasts a forged DECIDE(V) to everyone at start and then
// goes quiet. With at most f forgers and an amplification threshold of f+1,
// correct processes must never act on the forgeries.
type DecideForger struct {
	Me    types.ProcessID
	Peers []types.ProcessID
	V     types.Value
}

var _ sim.Node = (*DecideForger)(nil)

// ID implements sim.Node.
func (d *DecideForger) ID() types.ProcessID { return d.Me }

// Start implements sim.Node.
func (d *DecideForger) Start() []types.Message {
	return types.Broadcast(d.Me, d.Peers, &types.DecidePayload{V: d.V})
}

// Deliver implements sim.Node.
func (d *DecideForger) Deliver(types.Message) []types.Message { return nil }

// Done implements sim.Node.
func (d *DecideForger) Done() bool { return false }

// Equivocator attacks reliable broadcast. For every consensus slot it
// observes (via other processes' SENDs), it broadcasts its own instance with
// value 0 to the first half of the peers and value 1 to the second half,
// and it ECHOs and READYs both values of every instance it sees. Under
// n > 3f this cannot break RBC agreement — the tests assert exactly that —
// but it maximizes wasted traffic and ambiguity.
type Equivocator struct {
	Me    types.ProcessID
	Peers []types.ProcessID

	acted map[types.Tag]bool
	fed   map[types.InstanceID]bool
}

var _ sim.Node = (*Equivocator)(nil)

// ID implements sim.Node.
func (e *Equivocator) ID() types.ProcessID { return e.Me }

// Start implements sim.Node: open round 1 with an equivocating SEND. It
// forgets every slot and instance of an earlier run, so an Equivocator
// registered once runs again from nothing.
func (e *Equivocator) Start() []types.Message {
	if e.acted == nil {
		e.acted = make(map[types.Tag]bool)
		e.fed = make(map[types.InstanceID]bool)
	}
	clear(e.acted)
	clear(e.fed)
	return e.equivocateSlot(types.Tag{Round: 1, Step: types.Step1})
}

// Deliver implements sim.Node.
func (e *Equivocator) Deliver(m types.Message) []types.Message {
	p, ok := m.Payload.(*types.RBCPayload)
	if !ok {
		return nil
	}
	var out []types.Message
	// Join every slot other processes are active in, equivocating.
	out = append(out, e.equivocateSlot(p.ID.Tag)...)
	// Fan both possible bodies of this instance as ECHO and READY, once.
	if !e.fed[p.ID] && p.ID.Sender != e.Me {
		e.fed[p.ID] = true
		for _, v := range []types.Value{types.Zero, types.One} {
			body, err := encodeStepFor(p.ID.Tag, v)
			if err != nil {
				continue
			}
			for _, phase := range []types.Kind{types.KindRBCEcho, types.KindRBCReady} {
				pl := &types.RBCPayload{Phase: phase, ID: p.ID, Body: body}
				out = append(out, types.Broadcast(e.Me, e.Peers, pl)...)
			}
		}
	}
	return out
}

// Done implements sim.Node.
func (e *Equivocator) Done() bool { return false }

// equivocateSlot opens this process's own RBC instance for a slot with
// conflicting SENDs: 0 to the first half of the peers, 1 to the rest.
func (e *Equivocator) equivocateSlot(tag types.Tag) []types.Message {
	if e.acted[tag] || !tag.Step.Valid() || tag.Round < 1 {
		return nil
	}
	e.acted[tag] = true
	id := types.InstanceID{Sender: e.Me, Tag: tag}
	var out []types.Message
	half := len(e.Peers) / 2
	for i, peer := range e.Peers {
		v := types.Zero
		if i >= half {
			v = types.One
		}
		body, err := encodeStepFor(tag, v)
		if err != nil {
			return nil
		}
		out = append(out, types.Message{
			From:    e.Me,
			To:      peer,
			Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body},
		})
	}
	return out
}

func encodeStepFor(tag types.Tag, v types.Value) (string, error) {
	return wire.EncodeStep(types.StepMessage{Round: tag.Round, Step: tag.Step, V: v})
}

// Liar runs a genuine consensus node but inverts the value in every step
// message it originates (SENDs of its own instances). All other traffic —
// echoes, readies, coin shares — is forwarded unchanged, so its behaviour is
// maximally protocol-shaped.
type Liar struct {
	inner *core.Node
	// flips is the unused rest of the block flipped SEND payloads are
	// handed out of, blocks of flipBlock allocated as they run out. Copies
	// in flight keep their payload, so no slot is handed out twice; the
	// block survives Reset and is never reused.
	flips []types.RBCPayload
}

// flipBlock is how many flipped payloads one allocation holds: a liar
// lies in about three SENDs a round, so a run takes a few blocks.
const flipBlock = 4

// NewLiar builds a lying node over the real consensus implementation.
func NewLiar(cfg core.Config) (*Liar, error) {
	n, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("adversary: liar: %w", err)
	}
	return &Liar{inner: n}, nil
}

// Reset re-arms the liar for cfg as core.Node.Reset re-arms its node.
func (l *Liar) Reset(cfg core.Config) error {
	if err := l.inner.Reset(cfg); err != nil {
		return fmt.Errorf("adversary: liar: %w", err)
	}
	return nil
}

var (
	_ sim.Node     = (*Liar)(nil)
	_ sim.Recycler = (*Liar)(nil)
)

// ID implements sim.Node.
func (l *Liar) ID() types.ProcessID { return l.inner.ID() }

// Start implements sim.Node.
func (l *Liar) Start() []types.Message { return l.corrupt(l.inner.Start()) }

// Deliver implements sim.Node.
func (l *Liar) Deliver(m types.Message) []types.Message { return l.corrupt(l.inner.Deliver(m)) }

// Done implements sim.Node: a liar never halts voluntarily.
func (l *Liar) Done() bool { return false }

// Recycle implements sim.Recycler by handing buffers back to the inner node:
// corrupt rewrites the inner node's slice in place and keeps no reference.
func (l *Liar) Recycle(msgs []types.Message) { l.inner.Recycle(msgs) }

// corrupt flips the value inside this process's own SEND bodies. The n
// messages of one broadcast share one payload, so each broadcast is flipped
// once and its recipients share the flipped copy.
func (l *Liar) corrupt(msgs []types.Message) []types.Message {
	var src, flipped *types.RBCPayload
	for i, m := range msgs {
		p, ok := m.Payload.(*types.RBCPayload)
		if !ok || p.Phase != types.KindRBCSend || p.ID.Sender != l.inner.ID() {
			continue
		}
		if p != src {
			src, flipped = p, l.flip(p)
		}
		if flipped != nil {
			msgs[i].Payload = flipped
		}
	}
	return msgs
}

// flip returns a copy of p whose step body carries the other value, taken
// from the liar's block, or nil if the body does not decode as a step
// message.
func (l *Liar) flip(p *types.RBCPayload) *types.RBCPayload {
	sm, err := wire.DecodeStep(p.Body)
	if err != nil {
		return nil
	}
	sm.V = sm.V.Not()
	body, err := wire.EncodeStep(sm)
	if err != nil {
		return nil
	}
	if len(l.flips) == 0 {
		l.flips = make([]types.RBCPayload, flipBlock)
	}
	flipped := &l.flips[0]
	l.flips = l.flips[1:]
	*flipped = *p
	flipped.Body = body
	return flipped
}

// SplitBrain shows each of two partitions of the correct processes an
// internally consistent but mutually contradictory execution: personality A
// participates towards partition A proposing 0, personality B towards
// partition B proposing 1. Traffic from partition A feeds personality A
// only, and personality A's output is delivered to partition A (and fellow
// Byzantine processes) only.
type SplitBrain struct {
	me     types.ProcessID
	peers  []types.ProcessID
	spec   quorum.Spec
	groupA map[types.ProcessID]bool
	groupB map[types.ProcessID]bool
	pers   [2]*core.Node
}

// NewSplitBrain creates the split-brain node. groupA and groupB partition
// the correct processes; fellow Byzantine processes receive both
// personalities' traffic (they collude). The personalities use ideal coins
// derived from seed so colluders agree on every pretended coin flip.
func NewSplitBrain(me types.ProcessID, peers []types.ProcessID, spec quorum.Spec,
	groupA, groupB []types.ProcessID, seed int64) (*SplitBrain, error) {
	sb := &SplitBrain{
		me:     me,
		peers:  peers,
		spec:   spec,
		groupA: toSet(groupA),
		groupB: toSet(groupB),
	}
	for i := range sb.pers {
		n, err := core.New(sb.personality(i, seed))
		if err != nil {
			return nil, fmt.Errorf("adversary: split-brain personality %d: %w", i, err)
		}
		sb.pers[i] = n
	}
	return sb, nil
}

// personality is personality i's config: world A proposes 0, world B 1,
// each on an ideal coin derived from seed.
func (s *SplitBrain) personality(i int, seed int64) core.Config {
	return core.Config{
		Me:       s.me,
		Peers:    s.peers,
		Spec:     s.spec,
		Coin:     coin.NewIdeal(seed + int64(i)),
		Proposal: types.Value(i),
	}
}

// Reset re-arms both personalities for a run from seed: the node
// NewSplitBrain builds with seed, its groups unchanged.
func (s *SplitBrain) Reset(seed int64) error {
	for i, n := range s.pers {
		if err := n.Reset(s.personality(i, seed)); err != nil {
			return fmt.Errorf("adversary: split-brain personality %d: %w", i, err)
		}
	}
	return nil
}

var _ sim.Node = (*SplitBrain)(nil)

// ID implements sim.Node.
func (s *SplitBrain) ID() types.ProcessID { return s.me }

// Start implements sim.Node.
func (s *SplitBrain) Start() []types.Message {
	out := s.filter(s.pers[0].Start(), s.groupA)
	return append(out, s.filter(s.pers[1].Start(), s.groupB)...)
}

// Deliver implements sim.Node: traffic from partition members feeds the
// matching personality; traffic from fellow Byzantine colluders is routed by
// the value world its payload belongs to (world A runs on value 0, world B
// on value 1 — the runner assigns proposals accordingly), falling back to
// both personalities when the payload carries no value.
func (s *SplitBrain) Deliver(m types.Message) []types.Message {
	feedA, feedB := false, false
	switch {
	case s.groupA[m.From]:
		feedA = true
	case s.groupB[m.From]:
		feedB = true
	default: // fellow Byzantine
		switch worldOf(m.Payload) {
		case 0:
			feedA = true
		case 1:
			feedB = true
		default:
			feedA, feedB = true, true
		}
	}
	var out []types.Message
	if feedA {
		out = append(out, s.filter(s.pers[0].Deliver(m), s.groupA)...)
	}
	if feedB {
		out = append(out, s.filter(s.pers[1].Deliver(m), s.groupB)...)
	}
	return out
}

// worldOf extracts the value world a payload belongs to, or -1 if it has no
// recognizable value.
func worldOf(p types.Payload) int {
	switch v := p.(type) {
	case *types.RBCPayload:
		if sm, err := wire.DecodeStep(v.Body); err == nil {
			return int(sm.V)
		}
		return -1
	case *types.DecidePayload:
		return int(v.V)
	default:
		return -1
	}
}

// Done implements sim.Node.
func (s *SplitBrain) Done() bool { return false }

func (s *SplitBrain) isByz(p types.ProcessID) bool {
	return !s.groupA[p] && !s.groupB[p]
}

// filter keeps only messages destined for the given partition or for fellow
// Byzantine processes.
func (s *SplitBrain) filter(msgs []types.Message, group map[types.ProcessID]bool) []types.Message {
	out := msgs[:0]
	for _, m := range msgs {
		if group[m.To] || s.isByz(m.To) {
			out = append(out, m)
		}
	}
	return out
}

func toSet(ps []types.ProcessID) map[types.ProcessID]bool {
	set := make(map[types.ProcessID]bool, len(ps))
	for _, p := range ps {
		set[p] = true
	}
	return set
}

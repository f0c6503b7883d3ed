// Package baseline implements Ben-Or's randomized Byzantine consensus
// (PODC 1983, "protocol B"), the algorithm Bracha's PODC-84 paper improves
// on. It predates both reliable broadcast and message validation: processes
// exchange plain point-to-point messages, so a Byzantine process can freely
// equivocate (tell different processes different things). The price is
// resilience: Ben-Or needs n > 5f where Bracha achieves the optimal n > 3f.
// Experiment E6 reproduces exactly this crossover.
//
// Round structure (process with current value x, thresholds over n and f):
//
//	phase 1: send (1, r, x) to all; await n−f messages (1, r, *).
//	         If more than (n+f)/2 carry the same v: send (2, r, v, D);
//	         otherwise send (2, r, ?).
//	phase 2: await n−f messages (2, r, *).
//	         If more than (n+f)/2 are D(v): decide v (and x ← v);
//	         else if at least f+1 are D(v): x ← v;
//	         else: x ← coin flip.
//
// Like Bracha's protocol, deciding does not halt. The node embeds core's
// DECIDE-amplification gadget (core.DecideGadget), the one the Bracha engine
// halts through, so latency comparisons between the two protocols are fair.
package baseline

import (
	"errors"

	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// Node is one Ben-Or process. Deterministic state machine; not safe for
// concurrent use.
type Node struct {
	cfg  core.Config
	spec quorum.Spec

	round int
	phase types.Step // Step1 or Step2
	value types.Value
	// roundEnteredAt marks when the current round began (telemetry clock;
	// meaningless without a sink), charged to the gadget on a decision.
	roundEnteredAt sim.Time

	// got[slot] holds the first message from each sender for that slot, in
	// arrival order. No reliable broadcast: equivocation shows up as
	// different processes holding different firsts.
	got map[slot]*slotState

	waitingCoin bool
	stalled     bool

	// The decision and its DECIDE amplification, shared with core; it
	// supplies Decided, DecidedRound and Done.
	core.DecideGadget

	// The embedded recycled output buffer (see sim.OutBuffer), as in core.
	sim.OutBuffer
}

type slot struct {
	round int
	phase types.Step
}

// slotState is the per-slot message window: a bitset over peer indices
// (quorum.Spec.Index) marking which senders already contributed, so
// first-message-per-sender dedup is a bit test, plus their first messages in
// arrival order. msgs is allocated with capacity n once per slot, so appends
// never reallocate.
type slotState struct {
	seen []uint64
	msgs []*types.PlainPayload
}

// errUnsupported refuses the two core.Config fields Ben-Or cannot honour.
var errUnsupported = errors.New("baseline: Ben-Or has no validation to disable and no instance tag")

// New creates a Ben-Or node. It takes the Bracha engine's config: Spec is
// the failure assumption, which Ben-Or is only safe under for n > 5f — New
// does not enforce that, because experiment E6 runs it beyond its resilience
// on purpose. DisableValidation and a non-zero Instance are refused: Ben-Or
// has no validation, and its plain phase messages carry no instance tag.
func New(cfg core.Config) (*Node, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	if cfg.DisableValidation || cfg.Instance != 0 {
		return nil, errUnsupported
	}
	return &Node{
		cfg:          cfg,
		spec:         cfg.Spec,
		value:        cfg.Proposal,
		got:          make(map[slot]*slotState),
		DecideGadget: core.NewDecideGadget(cfg),
	}, nil
}

var (
	_ sim.Node     = (*Node)(nil)
	_ sim.Recycler = (*Node)(nil)
)

// ID implements sim.Node.
func (n *Node) ID() types.ProcessID { return n.cfg.Me }

// Start implements sim.Node.
func (n *Node) Start() []types.Message { return n.enterRound(n.Take(), 1) }

// Deliver implements sim.Node.
func (n *Node) Deliver(m types.Message) []types.Message {
	if n.Done() {
		return nil
	}
	switch p := m.Payload.(type) {
	case *types.PlainPayload:
		n.onPlain(m.From, p)
		return n.advance(n.Take())
	case *types.CoinSharePayload:
		n.cfg.Coin.HandleShare(m.From, p)
		return n.advance(n.Take())
	case *types.DecidePayload:
		return n.Vote(n.Take(), m.From, p, n.round, n.roundEnteredAt)
	default:
		return nil
	}
}

// Round returns the current round.
func (n *Node) Round() int { return n.round }

// Proposal returns the input value.
func (n *Node) Proposal() types.Value { return n.cfg.Proposal }

// onPlain records the first message per (sender, slot). Values are checked
// for well-formedness only — Ben-Or has no validation, which is the point.
func (n *Node) onPlain(from types.ProcessID, p *types.PlainPayload) {
	pi, ok := n.spec.Index(from)
	if !ok {
		return // only peers hold votes
	}
	if p.Round < 1 || (p.Step != types.Step1 && p.Step != types.Step2) {
		return
	}
	if !p.Q && !p.V.Valid() {
		return
	}
	if p.Q && p.Step != types.Step2 {
		return // "?" exists only in phase 2
	}
	if p.D && p.Step != types.Step2 {
		return
	}
	s := slot{round: p.Round, phase: p.Step}
	st := n.got[s]
	if st == nil {
		st = &slotState{
			seen: make([]uint64, (n.spec.N()+63)/64),
			msgs: make([]*types.PlainPayload, 0, len(n.cfg.Peers)),
		}
		n.got[s] = st
	}
	w, bit := pi>>6, uint64(1)<<(pi&63)
	if st.seen[w]&bit != 0 {
		return
	}
	st.seen[w] |= bit
	st.msgs = append(st.msgs, p)
}

// advance applies transitions until blocked, appending emitted messages to
// out.
func (n *Node) advance(out []types.Message) []types.Message {
	for !n.Done() && !n.stalled {
		if n.waitingCoin {
			s, ok := n.cfg.Coin.Value(n.round)
			if !ok {
				break
			}
			n.waitingCoin = false
			n.cfg.Recorder.Record(trace.Event{Kind: trace.KindCoin, P: n.cfg.Me, Round: n.round, V: s})
			n.value = s
			out = n.enterRound(out, n.round+1)
			continue
		}
		st := n.got[slot{round: n.round, phase: n.phase}]
		q := n.spec.Quorum()
		if st == nil || len(st.msgs) < q {
			break
		}
		window := st.msgs[:q]
		if n.phase == types.Step1 {
			out = n.finishPhase1(out, window)
		} else {
			out = n.finishPhase2(out, window)
		}
	}
	return out
}

func (n *Node) finishPhase1(out []types.Message, window []*types.PlainPayload) []types.Message {
	var count [2]int
	for _, p := range window {
		if !p.Q {
			count[p.V]++
		}
	}
	threshold := n.spec.HonestSuperMajority()
	msg := &types.PlainPayload{Round: n.round, Step: types.Step2, Q: true}
	switch {
	case count[0] >= threshold:
		msg = &types.PlainPayload{Round: n.round, Step: types.Step2, V: types.Zero, D: true}
	case count[1] >= threshold:
		msg = &types.PlainPayload{Round: n.round, Step: types.Step2, V: types.One, D: true}
	}
	n.phase = types.Step2
	return types.AppendBroadcast(out, n.cfg.Me, n.cfg.Peers, msg)
}

func (n *Node) finishPhase2(out []types.Message, window []*types.PlainPayload) []types.Message {
	var dCount [2]int
	for _, p := range window {
		if p.D && !p.Q {
			dCount[p.V]++
		}
	}
	v := types.Zero
	if dCount[1] > dCount[0] {
		v = types.One
	}
	// Release the round's coin unconditionally, as in core: a threshold
	// coin needs f+1 correct contributions whether or not this process
	// personally falls through to the flip.
	out = append(out, n.cfg.Coin.Release(n.round)...)
	switch {
	case dCount[v] >= n.spec.HonestSuperMajority():
		out = n.Decide(out, v, n.round, n.roundEnteredAt)
		n.value = v
		out = n.enterRound(out, n.round+1)
	case dCount[v] >= n.spec.Adopt():
		n.value = v
		out = n.enterRound(out, n.round+1)
	default:
		n.waitingCoin = true
	}
	return out
}

func (n *Node) enterRound(out []types.Message, r int) []types.Message {
	if r > n.cfg.MaxRounds {
		n.stalled = true
		return out
	}
	n.round = r
	n.phase = types.Step1
	n.roundEnteredAt = n.cfg.Telemetry.Now()
	n.cfg.Recorder.Record(trace.Event{Kind: trace.KindRound, P: n.cfg.Me, Round: r})
	msg := &types.PlainPayload{Round: r, Step: types.Step1, V: n.value}
	return types.AppendBroadcast(out, n.cfg.Me, n.cfg.Peers, msg)
}

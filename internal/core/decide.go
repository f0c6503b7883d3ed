package core

import (
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// DecideGadget is one process's decision state plus the DECIDE
// amplification that lets a randomized binary agreement halt: a deciding
// process broadcasts DECIDE(v); any process relays DECIDE(v) once it holds
// f+1 matching votes (at least one from a correct process) and decides and
// halts at 2f+1 (so every correct process will see f+1 and relay). One vote
// per peer counts, and only peers vote (quorum.Spec.Index), so at most f
// Byzantine senders can never reach f+1 alone. It is the paper's READY
// amplification applied to decisions, and both engines halt through it: Node
// holds one and the Ben-Or baseline embeds one, so their halting latencies
// compare like for like.
//
// Not safe for concurrent use; the owning node drives it.
type DecideGadget struct {
	me       types.ProcessID
	peers    []types.ProcessID
	q        quorum.Spec
	instance int  // DECIDE votes of other instances are ignored
	off      bool // ablation A2: decide and halt on votes, never broadcast
	rec      *trace.Recorder
	tele     *sim.Telemetry

	decided      bool
	decision     types.Value
	decidedRound int
	relayed      bool // this process broadcast its DECIDE
	halted       bool
	voted        []uint64 // the peer-indexed bitset of senders whose vote counted
	votes        [2]int   // first votes per value
}

// NewDecideGadget returns the gadget for process cfg.Me of cfg.Peers,
// counting DECIDE votes tagged with cfg.Instance. DisableDecideGadget turns
// amplification off (the process then never broadcasts DECIDE). Decision
// events go to the Recorder; the Telemetry sink, when non-nil, receives the
// round→decide latency.
func NewDecideGadget(cfg Config) DecideGadget {
	g := DecideGadget{voted: make([]uint64, (len(cfg.Peers)+63)/64)}
	g.Reset(cfg)
	return g
}

// Reset re-arms the gadget for cfg, which names the process and peers it
// was built for: undecided, not relayed, not halted, no vote counted, with
// its voted bitset cleared in place, and the instance, the ablation switch
// and the sinks taken from cfg. NewDecideGadget reaches its state through
// it.
func (g *DecideGadget) Reset(cfg Config) {
	clear(g.voted)
	*g = DecideGadget{
		me: cfg.Me, peers: cfg.Peers, q: cfg.Spec, instance: cfg.Instance, off: cfg.DisableDecideGadget,
		rec: cfg.Recorder, tele: cfg.Telemetry,
		voted: g.voted,
	}
}

// Decided reports whether the process decided and what.
func (g *DecideGadget) Decided() (types.Value, bool) { return g.decision, g.decided }

// DecidedRound returns the round in which the process decided (0 if
// undecided).
func (g *DecideGadget) DecidedRound() int { return g.decidedRound }

// Done implements sim.Node's Done: true once the process halted on 2f+1
// DECIDE votes.
func (g *DecideGadget) Done() bool { return g.halted }

// Decide records the process's own decision v, reached in round (entered at
// since), and unless disabled or already sent, appends its DECIDE broadcast
// to out.
func (g *DecideGadget) Decide(out []types.Message, v types.Value, round int, since sim.Time) []types.Message {
	g.decide(v, round, since)
	if g.off || g.relayed {
		return out
	}
	return g.relay(out, v)
}

// Vote counts one DECIDE vote, relaying at f+1 matching votes and deciding
// and halting at 2f+1; round and since are the process's current round and
// its entry time, charged if the vote decides.
func (g *DecideGadget) Vote(out []types.Message, from types.ProcessID, p *types.DecidePayload,
	round int, since sim.Time) []types.Message {
	if p == nil || !p.V.Valid() || p.Instance != g.instance {
		return out
	}
	if !g.firstVote(from) {
		return out
	}
	g.votes[p.V]++
	if g.votes[p.V] >= g.q.Adopt() && !g.relayed && !g.off {
		out = g.relay(out, p.V)
	}
	if g.votes[p.V] >= g.q.Decide() {
		g.decide(p.V, round, since)
		g.halted = true
		g.rec.Record(trace.Event{Kind: trace.KindHalt, P: g.me, Round: round})
	}
	return out
}

// firstVote records that from voted and reports whether it is a peer that
// had not voted before.
func (g *DecideGadget) firstVote(from types.ProcessID) bool {
	i, ok := g.q.Index(from)
	if !ok {
		return false
	}
	w, bit := i/64, uint64(1)<<(i%64)
	if g.voted[w]&bit != 0 {
		return false
	}
	g.voted[w] |= bit
	return true
}

func (g *DecideGadget) decide(v types.Value, round int, since sim.Time) {
	if g.decided {
		return
	}
	g.decided = true
	g.decision = v
	g.decidedRound = round
	g.tele.Observe(sim.PhaseRoundDecide, since)
	g.rec.Record(trace.Event{Kind: trace.KindDecide, P: g.me, Round: round, V: v})
}

func (g *DecideGadget) relay(out []types.Message, v types.Value) []types.Message {
	g.relayed = true
	return types.AppendBroadcast(out, g.me, g.peers, &types.DecidePayload{V: v, Instance: g.instance})
}

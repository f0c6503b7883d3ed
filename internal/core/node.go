// Package core implements the primary contribution of the PODC-84 paper:
// Bracha's asynchronous randomized Byzantine consensus with optimal
// resilience f < n/3. A Node is a deterministic state machine (sim.Node
// compatible) that composes the paper's three pieces:
//
//   - every step message is disseminated by reliable broadcast
//     (internal/rbc), so Byzantine processes cannot equivocate;
//
//   - received step messages count toward the n−f waits only once
//     *justified* (internal/validate), so Byzantine processes cannot send
//     implausible values;
//
//   - rounds of three steps drive values together, with a coin
//     (internal/coin) breaking symmetry:
//
//     step 1: broadcast value; await n−f; value ← majority.
//     step 2: broadcast value; await n−f; if some v holds > n/2, value ← D(v).
//     step 3: broadcast value; await n−f; if ≥ 2f+1 D(v): decide v;
//     else if ≥ f+1 D(v): value ← v; else value ← coin.
//
// Every rule reads only counts over the first n−f justified messages of its
// (round, step): how many carry each value, and in step 3 how many are
// D(v). So a wait is kept as those counts, one cell per (round, step), and
// never as the messages themselves.
//
// Bracha's protocol decides but never halts (processes keep echoing forever
// so laggards can finish). For practical termination this implementation
// adds the standard decide-amplification gadget (DecideGadget), a direct
// reuse of the paper's own READY amplification idea: a deciding process
// broadcasts DECIDE(v); any process relays on f+1 matching DECIDEs and halts
// on 2f+1. The gadget is configurable off (ablation A2) to measure the pure
// protocol.
package core

import (
	"errors"
	"fmt"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/validate"
	"repro/internal/wire"
)

// DefaultMaxRounds bounds how many rounds a node will start before stalling
// (a stalled node is detectable as a termination violation; the simulator's
// delivery budget is the usual backstop long before this).
const DefaultMaxRounds = 1 << 16

// Config configures an agreement engine: this package's Node, and the
// Ben-Or baseline, which refuses DisableValidation and a non-zero Instance.
type Config struct {
	// Me is this process; Peers lists all processes including Me.
	Me    types.ProcessID
	Peers []types.ProcessID
	// Spec is the failure assumption (n = len(Peers), f tolerated).
	Spec quorum.Spec
	// Coin supplies the step-3 randomness. Required.
	Coin coin.Coin
	// Proposal is this process's input bit.
	Proposal types.Value
	// Recorder, when enabled, receives ROUND/COIN/DECIDE/HALT/RBC events.
	Recorder *trace.Recorder
	// Instance namespaces this consensus instance when several share one
	// network (replicated-log slots): reliable-broadcast tags carry it as
	// Tag.Seq and DECIDE gadget messages carry it explicitly, so traffic
	// from other instances is ignored rather than miscounted. Concurrent
	// instances using the common coin additionally need distinct dealers
	// (share MACs are bound to a dealer secret, so foreign shares are
	// rejected, but reusing one dealer would reuse the same coin values).
	Instance int
	// DisableValidation turns off message justification (ablation A1).
	DisableValidation bool
	// DisableDecideGadget turns off DECIDE amplification (ablation A2):
	// the node then decides but never halts, as in the paper's original
	// formulation.
	DisableDecideGadget bool
	// MaxRounds bounds round progression (0 = DefaultMaxRounds).
	MaxRounds int
	// Telemetry, when non-nil, receives the consensus phase marks (round
	// entry → decision) and is forwarded to the RBC layer for its quorum
	// marks. Must be the sink the owning network is charging, whose clock
	// supplies the mark times.
	Telemetry *sim.Telemetry
}

// Stats counts a node's protocol activity.
type Stats struct {
	RoundsStarted int // rounds this node entered (≥ 1 after Start)
	CoinsUsed     int // step-3 coin fallbacks taken
	Adopted       int // step-3 f+1 adoptions taken
	StepsDone     int // step transitions completed
	PrunedLate    int // justified messages dropped for already-pruned rounds
}

// Node is one Bracha consensus process. Not safe for concurrent use: drive
// it from a single loop, such as the simulator's.
type Node struct {
	cfg   Config
	spec  quorum.Spec
	bcast *rbc.Broadcaster
	val   *validate.Validator

	round int
	step  types.Step
	value types.Value
	dFlag bool // value is a decision proposal (between steps 2 and 3)
	// roundEnteredAt marks when the current round began (telemetry clock;
	// meaningless without a sink).
	roundEnteredAt sim.Time

	accepted acceptedTable

	waitingCoin bool
	stalled     bool // hit MaxRounds

	// The decision, and the DECIDE amplification that halts the node.
	gadget DecideGadget

	// The embedded recycled output buffer (see sim.OutBuffer): once the
	// driver returns a delivered slice through Recycle, later Deliver
	// calls append into its backing array instead of allocating. Drivers
	// that never recycle simply leave the node allocating, as the seed
	// implementation always did. Hosts that multiplex instances (acs, smr)
	// bypass it through AppendStart and AppendDeliver.
	sim.OutBuffer

	stats Stats
}

// acceptedTable holds the quorum waits, one counter cell per (round, step)
// (the package doc says why counts suffice). Rounds are interned as offsets
// from a moving base: rounds[i] holds round base+i, a (round, step) cell
// resolves to two array indexes, and pruning advances base, so a long run's
// live table stays a fixed-size window.
type acceptedTable struct {
	base   int           // lowest retained round; rounds below are pruned
	rounds [][3]waitCell // rounds[i] = round base+i, one cell per step
}

// waitCell is one (round, step) wait: the justified messages folded in,
// and over the first n−f of them in fold order the count per value and of
// D(v) per value. int32 fields keep a round's three cells at 60 bytes, the
// table's whole cost for each round up to the one a Byzantine message names.
type waitCell struct {
	folded int32
	vals   [2]int32
	ds     [2]int32
}

// add folds a justified message into its (round, step) cell, counting its
// value only while the cell holds fewer than q. It reports false when the
// round was already pruned — the message is provably dead (waits only ever
// read the current round, which is past it) — or lies beyond maxRounds,
// which the node can never enter.
func (t *acceptedTable) add(m types.StepMessage, q, maxRounds int) bool {
	if m.Round < t.base || m.Round > maxRounds {
		return false
	}
	for m.Round-t.base >= len(t.rounds) {
		t.rounds = append(t.rounds, [3]waitCell{})
	}
	c := &t.rounds[m.Round-t.base][m.Step-types.Step1]
	if int(c.folded) < q {
		c.vals[m.V]++
		if m.D {
			c.ds[m.V]++
		}
	}
	c.folded++
	return true
}

// cell returns the (round, step) wait (empty if untouched or pruned).
func (t *acceptedTable) cell(round int, step types.Step) waitCell {
	if round < t.base || round-t.base >= len(t.rounds) {
		return waitCell{}
	}
	return t.rounds[round-t.base][step-types.Step1]
}

// pruneBelow releases every round before r.
func (t *acceptedTable) pruneBelow(r int) {
	if r <= t.base {
		return
	}
	k := min(r-t.base, len(t.rounds))
	t.rounds = t.rounds[:copy(t.rounds, t.rounds[k:])]
	t.base = r
}

// retained reports how many justified messages the table has folded into
// its retained rounds (diagnostics for the pruning tests and the E11 memory
// experiment).
func (t *acceptedTable) retained() int {
	total := 0
	for i := range t.rounds {
		for _, c := range t.rounds[i] {
			total += int(c.folded)
		}
	}
	return total
}

// ErrNoCoin is the config validation error for a missing coin.
var ErrNoCoin = errors.New("core: config requires a coin")

// Check validates the config for any agreement engine built from it — a
// coin is present, Peers holds Me and exactly Spec.N() entries, the proposal
// is a bit — and sets MaxRounds to DefaultMaxRounds when it is not positive.
// New and the Ben-Or baseline both call it first.
func (c *Config) Check() error {
	if c.Coin == nil {
		return ErrNoCoin
	}
	if err := c.Spec.CheckPeers(c.Me, c.Peers); err != nil {
		return err
	}
	if !c.Proposal.Valid() {
		return fmt.Errorf("core: invalid proposal %d", c.Proposal)
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = DefaultMaxRounds
	}
	return nil
}

// New creates a consensus node from a config that passes Check.
func New(cfg Config) (*Node, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	newVal := validate.New
	if cfg.DisableValidation {
		newVal = validate.NewLax
	}
	n := &Node{
		spec:   cfg.Spec,
		bcast:  rbc.New(cfg.Me, cfg.Peers, cfg.Spec),
		val:    newVal(cfg.Spec),
		gadget: NewDecideGadget(cfg),
	}
	n.rearm(cfg)
	return n, nil
}

// errRearm refuses a Reset to another process, system or validation mode.
var errRearm = errors.New("core: Reset changes the process, the spec or the validation mode")

// Reset re-arms the node for cfg: it returns to the state New(cfg)
// produces, and New reaches that state through the same path. cfg must pass
// Check and name the process and spec the node was built for, with
// validation on or off as it was; its coin, proposal, instance, sinks, round
// bound and gadget ablation are the new instance's. The node's broadcaster,
// validator and DECIDE gadget are re-armed in place (rbc.Broadcaster.Reset,
// validate.Validator.Reset, DecideGadget.Reset), keeping their tables and
// blocks, so a host that runs one instance after another — the replicated
// log, one per slot, or a sweep worker, one per seed — builds its engine
// once. Traffic of the previous instance must not reach the re-armed node;
// as after New, the host calls Start (or AppendStart) next.
func (n *Node) Reset(cfg Config) error {
	if err := cfg.Check(); err != nil {
		return err
	}
	if cfg.Me != n.cfg.Me || cfg.Spec != n.spec || cfg.DisableValidation != n.cfg.DisableValidation {
		return errRearm
	}
	n.rearm(cfg)
	return nil
}

// rearm is Reset without the checks, which New has made already.
func (n *Node) rearm(cfg Config) {
	n.bcast.Reset()
	n.bcast.SetTelemetry(cfg.Telemetry)
	n.val.Reset()
	n.gadget.Reset(cfg)
	*n = Node{
		cfg:       cfg,
		spec:      n.spec,
		bcast:     n.bcast,
		val:       n.val,
		value:     cfg.Proposal,
		accepted:  acceptedTable{base: 1, rounds: n.accepted.rounds[:0]},
		gadget:    n.gadget,
		OutBuffer: n.OutBuffer,
	}
}

var (
	_ sim.Node     = (*Node)(nil)
	_ sim.Recycler = (*Node)(nil)
)

// ID implements sim.Node.
func (n *Node) ID() types.ProcessID { return n.cfg.Me }

// Done implements sim.Node: true once the node halted via the decide gadget.
func (n *Node) Done() bool { return n.gadget.Done() }

// Start implements sim.Node: enter round 1 and broadcast the proposal.
func (n *Node) Start() []types.Message { return n.AppendStart(n.Take()) }

// Deliver implements sim.Node. A halted node returns nil.
func (n *Node) Deliver(m types.Message) []types.Message {
	if n.gadget.halted {
		return nil
	}
	return n.AppendDeliver(n.Take(), m)
}

// AppendStart is Start appending the emissions to out, the in-place form
// for a host that multiplexes instances into one output buffer (acs, smr).
func (n *Node) AppendStart(out []types.Message) []types.Message {
	return n.enterRound(out, 1)
}

// AppendDeliver is Deliver appending the emissions to out; a halted node
// returns out unchanged.
func (n *Node) AppendDeliver(out []types.Message, m types.Message) []types.Message {
	if n.gadget.halted {
		return out
	}
	out, deliveries, ok := n.bcast.AppendHandlePayload(out, m.From, m.Payload)
	if !ok {
		switch p := m.Payload.(type) {
		case *types.CoinSharePayload:
			n.cfg.Coin.HandleShare(m.From, p)
		case *types.DecidePayload:
			return n.gadget.Vote(out, m.From, p, n.round, n.roundEnteredAt)
		default:
			return out
		}
	}
	return n.advance(n.onDeliveries(out, deliveries))
}

// Decided reports whether the node decided and what.
func (n *Node) Decided() (types.Value, bool) { return n.gadget.Decided() }

// DecidedRound returns the round in which the node decided (0 if undecided).
func (n *Node) DecidedRound() int { return n.gadget.DecidedRound() }

// Round returns the node's current round.
func (n *Node) Round() int { return n.round }

// Proposal returns the node's input value.
func (n *Node) Proposal() types.Value { return n.cfg.Proposal }

// Stats returns protocol activity counters.
func (n *Node) Stats() Stats { return n.stats }

// AcceptedRetained returns how many justified messages the node currently
// retains in its quorum-wait table — the current and previous rounds only
// (diagnostics for the pruning tests and the E11 memory experiment).
func (n *Node) AcceptedRetained() int { return n.accepted.retained() }

// RBCLiveInstances returns how many reliable-broadcast instances the node
// retains at full fidelity (tallies and payloads); RBCCompacted returns how
// many it has released to compact delivered records. The live count stays
// bounded by the two retained rounds plus non-terminal stragglers
// (diagnostics for the pruning tests and the E11 memory experiment).
func (n *Node) RBCLiveInstances() int { return n.bcast.Instances() }

// RBCCompacted returns the count of compact delivered records held
// for pruned RBC instances.
func (n *Node) RBCCompacted() int { return n.bcast.Compacted() }

// ValidatorSeenRetained returns how many per-sender dedup entries the
// node's validator currently holds — the current and previous rounds only.
func (n *Node) ValidatorSeenRetained() int { return n.val.SeenRetained() }

// JustificationsRetained returns how many per-round justification digests
// this node's validator retains — the other lifetime residue of pruning,
// one 64-byte digest per touched round.
func (n *Node) JustificationsRetained() int { return n.val.JustificationsRetained() }

// onDeliveries records every reliable-broadcast delivery — however
// disseminated, plain or coded — with the validator and folds newly
// justified messages into the quorum waits.
func (n *Node) onDeliveries(out []types.Message, deliveries []rbc.Delivery) []types.Message {
	for _, d := range deliveries {
		sm, err := wire.DecodeStep(d.Body)
		if err != nil {
			continue // Byzantine garbage body
		}
		// The RBC instance tag must match the body's slot, or a Byzantine
		// sender could use one broadcast to occupy another slot; foreign
		// consensus instances (different Seq) are not ours to count. Only
		// peers vote: the broadcaster delivers no non-peer's instance.
		if sm.Round != d.ID.Tag.Round || sm.Step != d.ID.Tag.Step || d.ID.Tag.Seq != n.cfg.Instance {
			continue
		}
		if n.cfg.Recorder.Enabled() {
			n.cfg.Recorder.Record(trace.Event{Kind: trace.KindRBC, P: n.cfg.Me, Round: sm.Round,
				Note: fmt.Sprintf("delivered %v from %v", sm, d.ID.Sender)})
		}
		for _, acc := range n.val.Record(d.ID.Sender, sm) {
			// Justified messages for pruned rounds are dead on arrival:
			// quorum waits only read the current round, which is already
			// past them. The validator still folded the message into its
			// round tallies above — those stay live, because justification
			// of in-flight current-round messages can reach back into them.
			if !n.accepted.add(acc.Msg, n.spec.Quorum(), n.cfg.MaxRounds) {
				n.stats.PrunedLate++
			}
		}
	}
	return out
}

// advance applies every enabled transition until the node blocks on a wait,
// appending emitted messages to out.
func (n *Node) advance(out []types.Message) []types.Message {
	for !n.gadget.halted && !n.stalled {
		if n.waitingCoin {
			s, ok := n.cfg.Coin.Value(n.round)
			if !ok {
				break
			}
			n.waitingCoin = false
			n.stats.CoinsUsed++
			n.cfg.Recorder.Record(trace.Event{Kind: trace.KindCoin, P: n.cfg.Me, Round: n.round, V: s})
			n.value = s
			out = n.enterRound(out, n.round+1)
			continue
		}
		wait := n.accepted.cell(n.round, n.step)
		if int(wait.folded) < n.spec.Quorum() {
			break
		}
		n.stats.StepsDone++
		switch n.step {
		case types.Step1:
			n.value = majority(wait)
			n.step = types.Step2
			out = n.broadcastStep(out)
		case types.Step2:
			if v, ok := superMajority(wait, n.spec.SuperMajority()); ok {
				n.value = v
				n.dFlag = true
			} else {
				n.dFlag = false
			}
			n.step = types.Step3
			out = n.broadcastStep(out)
		case types.Step3:
			out = n.finishStep3(out, wait)
		}
	}
	return out
}

// finishStep3 applies the decide/adopt/coin rule over the wait's first n−f
// messages and either moves to the next round or blocks on the coin.
func (n *Node) finishStep3(out []types.Message, wait waitCell) []types.Message {
	// Release the round's coin unconditionally: with the common coin,
	// reconstruction needs f+1 correct shares, and only processes that
	// finished step 3 may contribute — so everyone must, whether or not
	// they personally fall through to the coin. Unpredictability is
	// preserved exactly as required: the coin stays secret until the first
	// correct process completes the round's step 3.
	out = append(out, n.cfg.Coin.Release(n.round)...)

	// With validation on, at most one value can carry justified D-messages
	// in a round; pick the better-supported one defensively anyway (lax
	// ablations can produce both).
	dCount := wait.ds
	v := types.Zero
	if dCount[1] > dCount[0] {
		v = types.One
	}
	switch {
	case int(dCount[v]) >= n.spec.Decide():
		out = n.gadget.Decide(out, v, n.round, n.roundEnteredAt)
		n.value = v
		out = n.enterRound(out, n.round+1)
	case int(dCount[v]) >= n.spec.Adopt():
		n.stats.Adopted++
		n.value = v
		out = n.enterRound(out, n.round+1)
	default:
		n.waitingCoin = true // advance() resumes when the coin lands
	}
	return out
}

// enterRound moves to the given round and broadcasts its step-1 message.
func (n *Node) enterRound(out []types.Message, r int) []types.Message {
	if r > n.cfg.MaxRounds {
		n.stalled = true
		n.cfg.Recorder.Record(trace.Event{Kind: trace.KindNote, P: n.cfg.Me, Round: r, Note: "max rounds reached; stalling"})
		return out
	}
	n.round = r
	n.step = types.Step1
	n.dFlag = false
	n.roundEnteredAt = n.cfg.Telemetry.Now()
	n.stats.RoundsStarted++
	// The pruning invariant: a round-r message is judged only against round
	// r−1's tallies, so entering round r releases everything below r−1 —
	// accepted lists recycle their backing arrays, a pruning-aware coin drops
	// its per-round share state (and any straggler shares that arrive
	// later), terminal RBC instances compact to delivered records, and the
	// validator releases its per-sender seen entries. The validator's
	// per-round justification digests are deliberately retained:
	// justification of in-flight messages recurses into previous rounds'
	// digests, and they cost bytes per round, not kilobytes.
	floor := r - 1
	n.accepted.pruneBelow(floor)
	if p, ok := n.cfg.Coin.(coin.Pruner); ok {
		p.Prune(floor)
	}
	n.bcast.PruneBelow(floor)
	n.val.PruneBelow(floor)
	n.cfg.Recorder.Record(trace.Event{Kind: trace.KindRound, P: n.cfg.Me, Round: r})
	return n.broadcastStep(out)
}

// broadcastStep reliably broadcasts the node's current (round, step, value).
func (n *Node) broadcastStep(out []types.Message) []types.Message {
	sm := types.StepMessage{Round: n.round, Step: n.step, V: n.value, D: n.dFlag && n.step == types.Step3}
	body, err := wire.EncodeStep(sm)
	if err != nil {
		// All fields are internally generated and valid by construction.
		panic(fmt.Sprintf("core: encoding own step message %v: %v", sm, err))
	}
	return n.bcast.AppendBroadcast(out, types.Tag{Round: n.round, Step: n.step, Seq: n.cfg.Instance}, body)
}

// majority returns the majority value of a wait's first n−f messages, ties
// to 0 — the same deterministic rule the validator assumes.
func majority(wait waitCell) types.Value {
	if wait.vals[1] > wait.vals[0] {
		return types.One
	}
	return types.Zero
}

// superMajority returns the value held by more than half of all n processes
// within a wait's first n−f messages, if any.
func superMajority(wait waitCell, sm int) (types.Value, bool) {
	switch {
	case int(wait.vals[0]) >= sm:
		return types.Zero, true
	case int(wait.vals[1]) >= sm:
		return types.One, true
	default:
		return 0, false
	}
}

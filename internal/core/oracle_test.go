package core

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/types"
	"repro/internal/wire"
)

// This file checks Node against a test-only node transcribed from the
// paper's round structure: every delivered step message is kept in plain
// maps keyed by (round, step, sender), nothing is pruned or recycled, a
// message is justified when some (n−f)-subset of the justified messages of
// the step it answers could have made a correct process send it (decided
// by enumerating the subsets, as validate's oracle test does for single
// predicates), and each step waits for the first n−f justified messages of
// its (round, step). Scripts of step-message deliveries and DECIDE votes
// drive both nodes; after every delivery their emissions, decisions, rounds
// and first-(n−f) counts must agree. In the re-armed mode a node that ran one
// script is reset for the next instance and runs a second, which must also
// match a freshly built node message by message.

// oracleKey is the one message a sender may contribute per (round, step).
type oracleKey struct {
	round  int
	step   types.Step
	sender types.ProcessID
}

// oracleCounts is what a step's rule reads of its wait: how many justified
// messages the wait holds, and over the first n−f of them in fold order the
// count per value and the count of D(v) per value.
type oracleCounts struct {
	folded int
	vals   [2]int
	ds     [2]int
}

// oracleNode is the transcription. Its thresholds are spelled out from the
// paper (n−f, f+1, 2f+1, more than n/2) rather than read from quorum.Spec.
type oracleNode struct {
	n, f      int
	me        types.ProcessID
	peers     []types.ProcessID
	instance  int
	maxRounds int
	gadgetOff bool
	coin      coin.Coin

	delivered map[oracleKey]types.StepMessage // first delivery per slot
	justified map[oracleKey]bool
	accepted  map[[2]int][]types.StepMessage // by (round, step), in fold order

	round   int
	step    types.Step
	value   types.Value
	dFlag   bool
	stalled bool

	decided      bool
	decision     types.Value
	decidedRound int
	relayed      bool
	halted       bool
	votes        map[types.ProcessID]types.Value
	voteCount    [2]int

	rounds, coins, adopted int
}

func newOracleNode(cfg Config) *oracleNode {
	return &oracleNode{
		n: cfg.Spec.N(), f: cfg.Spec.F(), me: cfg.Me, peers: cfg.Peers,
		instance: cfg.Instance, maxRounds: cfg.MaxRounds, gadgetOff: cfg.DisableDecideGadget,
		coin:      cfg.Coin,
		value:     cfg.Proposal,
		delivered: map[oracleKey]types.StepMessage{},
		justified: map[oracleKey]bool{},
		accepted:  map[[2]int][]types.StepMessage{},
		votes:     map[types.ProcessID]types.Value{},
	}
}

// start enters round 1 with the proposal.
func (o *oracleNode) start() []string { return o.enterRound(nil, 1) }

// deliverStep is the reliable delivery of sender's step message m: the
// first delivery per slot counts, later ones are dropped.
func (o *oracleNode) deliverStep(sender types.ProcessID, m types.StepMessage) []string {
	k := oracleKey{m.Round, m.Step, sender}
	if o.halted {
		return nil
	}
	if _, dup := o.delivered[k]; dup {
		return nil
	}
	o.delivered[k] = m
	o.fold()
	return o.advance(nil)
}

// fold moves every delivered, not yet justified message whose justification
// now holds into its wait. Candidates are visited by round, step, then
// sender, and the visit repeats until nothing moves: the fold order the
// windows are cut from.
func (o *oracleNode) fold() {
	for moved := true; moved; {
		moved = false
		keys := slices.SortedFunc(maps.Keys(o.delivered), func(a, b oracleKey) int {
			return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.step, b.step), cmp.Compare(a.sender, b.sender))
		})
		for _, k := range keys {
			m := o.delivered[k]
			if o.justified[k] || !o.isJustified(m) {
				continue
			}
			o.justified[k] = true
			slot := [2]int{m.Round, int(m.Step)}
			o.accepted[slot] = append(o.accepted[slot], m)
			moved = true
		}
	}
}

// justifiedAt returns the justified messages of (round, step), any order.
func (o *oracleNode) justifiedAt(round int, step types.Step) []types.StepMessage {
	var out []types.StepMessage
	// order-free: callers enumerate every subset
	for k, ok := range o.justified {
		if ok && k.round == round && k.step == step {
			out = append(out, o.delivered[k])
		}
	}
	return out
}

// someSubset reports whether some (n−f)-subset of msgs satisfies pred.
func (o *oracleNode) someSubset(msgs []types.StepMessage, pred func(sub []types.StepMessage) bool) bool {
	q := o.n - o.f
	var pick func(from int, sub []types.StepMessage) bool
	pick = func(from int, sub []types.StepMessage) bool {
		if len(sub) == q {
			return pred(sub)
		}
		for i := from; i < len(msgs); i++ {
			if pick(i+1, append(sub, msgs[i])) {
				return true
			}
		}
		return false
	}
	return pick(0, make([]types.StepMessage, 0, q))
}

func countOf(sub []types.StepMessage, v types.Value, dOnly bool) int {
	c := 0
	for _, m := range sub {
		if m.V == v && (m.D || !dOnly) {
			c++
		}
	}
	return c
}

// majorityOf is step 1's rule: the value most of the window holds, ties to 0.
func majorityOf(sub []types.StepMessage) types.Value {
	if 2*countOf(sub, types.One, false) > len(sub) {
		return types.One
	}
	return types.Zero
}

// isJustified: could a correct process have sent m, given some n−f
// justified messages of the step m answers?
func (o *oracleNode) isJustified(m types.StepMessage) bool {
	switch {
	case m.Step == types.Step1 && m.Round == 1:
		return true // any input value
	case m.Step == types.Step1:
		// v adopted from ≥ f+1 D(v) in the previous round's step 3, or any
		// value when fewer than f+1 of each D sends the process to the coin.
		return o.someSubset(o.justifiedAt(m.Round-1, types.Step3), func(sub []types.StepMessage) bool {
			d0, d1 := countOf(sub, types.Zero, true), countOf(sub, types.One, true)
			return countOf(sub, m.V, true) >= o.f+1 || (d0 <= o.f && d1 <= o.f)
		})
	case m.Step == types.Step2:
		return o.someSubset(o.justifiedAt(m.Round, types.Step1), func(sub []types.StepMessage) bool {
			return majorityOf(sub) == m.V
		})
	case m.D:
		// D(v): v held by more than n/2 of some n−f step-2 messages.
		return o.someSubset(o.justifiedAt(m.Round, types.Step2), func(sub []types.StepMessage) bool {
			return 2*countOf(sub, m.V, false) > o.n
		})
	default:
		// Plain v: no value held by more than n/2 of some n−f step-2
		// messages, and v the majority of some n−f step-1 messages.
		return o.someSubset(o.justifiedAt(m.Round, types.Step2), func(sub []types.StepMessage) bool {
			return 2*countOf(sub, types.Zero, false) <= o.n && 2*countOf(sub, types.One, false) <= o.n
		}) && o.someSubset(o.justifiedAt(m.Round, types.Step1), func(sub []types.StepMessage) bool {
			return majorityOf(sub) == m.V
		})
	}
}

// advance takes every step whose wait holds n−f justified messages.
func (o *oracleNode) advance(out []string) []string {
	for !o.halted && !o.stalled {
		acc := o.accepted[[2]int{o.round, int(o.step)}]
		if len(acc) < o.n-o.f {
			break
		}
		window := acc[:o.n-o.f]
		switch o.step {
		case types.Step1:
			o.value = majorityOf(window)
			o.step = types.Step2
			out = o.broadcastStep(out)
		case types.Step2:
			o.dFlag = false
			for _, v := range []types.Value{types.Zero, types.One} {
				if 2*countOf(window, v, false) > o.n {
					o.value, o.dFlag = v, true
				}
			}
			o.step = types.Step3
			out = o.broadcastStep(out)
		case types.Step3:
			// The better-supported D value, ties to 0 (with validation on,
			// at most one value carries D in a round).
			v := types.Zero
			if countOf(window, types.One, true) > countOf(window, types.Zero, true) {
				v = types.One
			}
			switch d := countOf(window, v, true); {
			case d >= 2*o.f+1:
				out = o.decide(out, v)
			case d >= o.f+1:
				o.adopted++
			default:
				v, _ = o.coin.Value(o.round)
				o.coins++
			}
			o.value = v
			out = o.enterRound(out, o.round+1)
		}
	}
	return out
}

func (o *oracleNode) enterRound(out []string, r int) []string {
	if r > o.maxRounds {
		o.stalled = true
		return out
	}
	o.round, o.step, o.dFlag = r, types.Step1, false
	o.rounds++
	return o.broadcastStep(out)
}

func (o *oracleNode) broadcastStep(out []string) []string {
	m := types.StepMessage{Round: o.round, Step: o.step, V: o.value, D: o.dFlag && o.step == types.Step3}
	return append(out, "step "+m.String())
}

// decide is the process's own decision: the first one sticks, and it
// broadcasts DECIDE(v) unless it already did or the gadget is off.
func (o *oracleNode) decide(out []string, v types.Value) []string {
	if !o.decided {
		o.decided, o.decision, o.decidedRound = true, v, o.round
	}
	if o.gadgetOff || o.relayed {
		return out
	}
	o.relayed = true
	return append(out, fmt.Sprintf("decide %v/%d", v, o.instance))
}

// deliverDecide counts one DECIDE vote per sender: relay at f+1 matching
// votes, decide and halt at 2f+1.
func (o *oracleNode) deliverDecide(from types.ProcessID, v types.Value, instance int) []string {
	if o.halted || instance != o.instance {
		return nil
	}
	if _, dup := o.votes[from]; dup {
		return nil
	}
	o.votes[from] = v
	o.voteCount[v]++
	var out []string
	if o.voteCount[v] >= o.f+1 && !o.relayed && !o.gadgetOff {
		o.relayed = true
		out = append(out, fmt.Sprintf("decide %v/%d", v, o.instance))
	}
	if o.voteCount[v] >= 2*o.f+1 {
		if !o.decided {
			o.decided, o.decision, o.decidedRound = true, v, o.round
		}
		o.halted = true
	}
	return out
}

// counts is the first-(n−f) reading of (round, step) a node can still
// take: none below the previous round (released on round entry) or above
// maxRounds (a round it never enters).
func (o *oracleNode) counts(round int, step types.Step) oracleCounts {
	if round < max(1, o.round-1) || round > o.maxRounds {
		return oracleCounts{}
	}
	acc := o.accepted[[2]int{round, int(step)}]
	c := oracleCounts{folded: len(acc)}
	for _, m := range acc[:min(len(acc), o.n-o.f)] {
		c.vals[m.V]++
		if m.D {
			c.ds[m.V]++
		}
	}
	return c
}

// nodeCounts reads the same from the node's quorum-wait cell.
func nodeCounts(nd *Node, round int, step types.Step) oracleCounts {
	c := nd.accepted.cell(round, step)
	return oracleCounts{
		folded: int(c.folded),
		vals:   [2]int{int(c.vals[0]), int(c.vals[1])},
		ds:     [2]int{int(c.ds[0]), int(c.ds[1])},
	}
}

// Script operations. Every operand is one byte taken modulo its range, so
// any byte string is a script. The op byte indexes coreScriptOps, whose
// weights keep random scripts moving: most traffic is what a correct peer
// could send now (which fills the waits with a mix of values and D), the
// arbitrary traffic that may never be justified comes from the f
// Byzantine peers, and DECIDE votes are rare enough not to halt most
// scripts early.
const (
	opCopy   = iota // sender: the node's own current step message
	opNow           // step, sender, choice: a message a correct peer could send now, this round
	opStep          // sender, round offset, step, value, D: a Byzantine message near the node's round
	opAny           // sender, round, step, value, D: any peer's message, rounds 1 to maxRounds+3
	opDecide        // sender, value, foreign: a DECIDE vote, for the next instance if foreign == 0
)

var coreScriptOps = []int{
	opCopy, opNow, opNow, opNow, opStep, opStep, opAny, opNow,
	opCopy, opNow, opNow, opNow, opStep, opStep, opAny, opNow,
	opCopy, opNow, opNow, opNow, opStep, opStep, opAny, opNow,
	opCopy, opNow, opNow, opNow, opStep, opStep, opNow, opDecide,
}

var (
	coreScriptSizes     = []quorum.Spec{quorum.MustNew(4, 1), quorum.MustNew(5, 1), quorum.MustNew(7, 2)}
	coreScriptMaxRounds = []int{3, 5, 8}
	coreScriptOffsets   = []int{0, 0, 1, -1, 2, -2, 3}
)

// coreScriptInstance is the consensus instance both nodes run; a re-armed
// node runs the next one.
const coreScriptInstance = 2

// maxCoreScriptOps bounds one script's length, keeping fuzz iterations fast.
const maxCoreScriptOps = 3000

// coreScriptRun holds the nodes a script drives. fresh is set when got is a
// re-armed node: a newly built one whose every emitted message (by field)
// and observable got must match as well.
type coreScriptRun struct {
	t     *testing.T
	name  string
	op    int
	got   *Node
	want  *oracleNode
	fresh *Node
}

func (s *coreScriptRun) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s: op %d: %s", s.name, s.op, fmt.Sprintf(format, args...))
}

// emissions renders what the node broadcast: its own step messages (the
// reliable-broadcast SENDs it originates) and its DECIDEs, one entry per
// broadcast. Echoes and readies for others' instances are reliable
// broadcast's business, not the round structure's.
func (s *coreScriptRun) emissions(out []types.Message) []string {
	var got []string
	for _, m := range out {
		if m.To != s.want.peers[0] {
			continue
		}
		switch p := m.Payload.(type) {
		case *types.RBCPayload:
			if p.Phase != types.KindRBCSend || p.ID.Sender != s.want.me {
				continue
			}
			sm, err := wire.DecodeStep(p.Body)
			if err != nil || p.ID.Tag != (types.Tag{Round: sm.Round, Step: sm.Step, Seq: s.want.instance}) {
				s.fail("broadcast %v carries %q", p.ID, p.Body)
			}
			got = append(got, "step "+sm.String())
		case *types.DecidePayload:
			got = append(got, fmt.Sprintf("decide %v/%d", p.V, p.Instance))
		}
	}
	return got
}

// checkFresh fails unless a re-armed node emitted what the fresh node did,
// message by message and field by field, and reads the same through every
// observer.
func (s *coreScriptRun) checkFresh(what string, out, fresh []types.Message) {
	s.t.Helper()
	if s.fresh == nil {
		return
	}
	if len(out) != len(fresh) {
		s.fail("%s: %d messages, fresh node %d", what, len(out), len(fresh))
	}
	for i := range out {
		if !reflect.DeepEqual(out[i], fresh[i]) {
			s.fail("%s: message %d is %v, fresh node %v", what, i, out[i], fresh[i])
		}
	}
	type observed struct {
		decision                           types.Value
		decided, done                      bool
		decidedRound, round                int
		stats                              Stats
		accepted, live, compacted, seen, j int
	}
	observe := func(nd *Node) observed {
		v, ok := nd.Decided()
		return observed{v, ok, nd.Done(), nd.DecidedRound(), nd.Round(), nd.Stats(),
			nd.AcceptedRetained(), nd.RBCLiveInstances(), nd.RBCCompacted(),
			nd.ValidatorSeenRetained(), nd.JustificationsRetained()}
	}
	if g, f := observe(s.got), observe(s.fresh); g != f {
		s.fail("%s: re-armed node reads %+v, fresh node %+v", what, g, f)
	}
}

func (s *coreScriptRun) check(what string, out []types.Message, want []string) {
	s.t.Helper()
	if got := s.emissions(out); !slices.Equal(got, want) {
		s.fail("%s: broadcast %q, oracle %q", what, got, want)
	}
	o, nd := s.want, s.got
	if v, ok := nd.Decided(); ok != o.decided || v != o.decision && ok {
		s.fail("%s: Decided() = %v/%v, oracle %v/%v", what, v, ok, o.decision, o.decided)
	}
	if g, w := nd.DecidedRound(), o.decidedRound; g != w {
		s.fail("%s: DecidedRound() = %d, oracle %d", what, g, w)
	}
	if g, w := nd.Round(), o.round; g != w {
		s.fail("%s: Round() = %d, oracle %d", what, g, w)
	}
	if g, w := nd.Done(), o.halted; g != w {
		s.fail("%s: Done() = %v, oracle %v", what, g, w)
	}
	st := nd.Stats()
	if st.RoundsStarted != o.rounds || st.CoinsUsed != o.coins || st.Adopted != o.adopted {
		s.fail("%s: rounds/coins/adoptions %d/%d/%d, oracle %d/%d/%d", what,
			st.RoundsStarted, st.CoinsUsed, st.Adopted, o.rounds, o.coins, o.adopted)
	}
	retained := 0
	for r := max(1, o.round-1); r <= o.maxRounds+3; r++ {
		for _, step := range []types.Step{types.Step1, types.Step2, types.Step3} {
			g, w := nodeCounts(nd, r, step), o.counts(r, step)
			if g != w {
				s.fail("%s: r%d/%v counts %+v, oracle %+v", what, r, step, g, w)
			}
			retained += w.folded
		}
	}
	if g := nd.AcceptedRetained(); g != retained {
		s.fail("%s: AcceptedRetained() = %d, oracle %d", what, g, retained)
	}
}

// deliverStep hands sender's step message to the node through a READY
// quorum (2f+1 READYs carrying the body) and to the oracle directly.
func (s *coreScriptRun) deliverStep(sender types.ProcessID, m types.StepMessage) {
	s.t.Helper()
	body, err := wire.EncodeStep(m)
	if err != nil {
		s.fail("encoding %v: %v", m, err)
	}
	id := types.InstanceID{Sender: sender, Tag: types.Tag{Round: m.Round, Step: m.Step, Seq: s.want.instance}}
	var out, fresh []types.Message
	for _, p := range s.want.peers[:2*s.want.f+1] {
		msg := types.Message{From: p, To: s.want.me,
			Payload: &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body}}
		out = append(out, s.got.Deliver(msg)...)
		if s.fresh != nil {
			fresh = append(fresh, s.fresh.Deliver(msg)...)
		}
	}
	what := fmt.Sprintf("%v from %v", m, sender)
	s.check(what, out, s.want.deliverStep(sender, m))
	s.checkFresh(what, out, fresh)
}

func (s *coreScriptRun) deliverDecide(from types.ProcessID, v types.Value, instance int) {
	s.t.Helper()
	msg := types.Message{From: from, To: s.want.me, Payload: &types.DecidePayload{V: v, Instance: instance}}
	out := s.got.Deliver(msg)
	what := fmt.Sprintf("DECIDE %v/%d from %v", v, instance, from)
	s.check(what, out, s.want.deliverDecide(from, v, instance))
	if s.fresh != nil {
		s.checkFresh(what, out, s.fresh.Deliver(msg))
	}
}

// plausible returns the i-th (cyclically) message for (round, step) that a
// correct process could send now, by D and then value, or a plain 0 if
// none is.
func (o *oracleNode) plausible(round int, step types.Step, i int) types.StepMessage {
	var ok []types.StepMessage
	for _, d := range []bool{false, true} {
		for _, v := range []types.Value{types.Zero, types.One} {
			m := types.StepMessage{Round: round, Step: step, V: v, D: d}
			if (!d || step == types.Step3) && o.isJustified(m) {
				ok = append(ok, m)
			}
		}
	}
	if len(ok) == 0 {
		return types.StepMessage{Round: round, Step: step}
	}
	return ok[i%len(ok)]
}

// unheard returns the i-th peer (cyclically) not yet delivered for (round,
// step), or peer i if every one was, so copies and correct traffic fill the
// waits instead of mostly repeating senders.
func (o *oracleNode) unheard(round int, step types.Step, i int) types.ProcessID {
	var open []types.ProcessID
	for _, p := range o.peers {
		if _, ok := o.delivered[oracleKey{round, step, p}]; !ok {
			open = append(open, p)
		}
	}
	if len(open) == 0 {
		return o.peers[i]
	}
	return open[i%len(open)]
}

// readStep reads value and D operands into a message for (round, step).
func readStep(r *scriptReader, round int, step types.Step) types.StepMessage {
	v := types.Value(r.next(2))
	d := r.next(2) == 1 && step == types.Step3
	return types.StepMessage{Round: round, Step: step, V: v, D: d}
}

// runCoreScript decodes data and runs it against a fresh Node and oracle.
func runCoreScript(t *testing.T, name string, data []byte) {
	t.Helper()
	driveCoreScript(t, name, data, nil)
}

// coreScriptHeader is how many bytes of a script make its header.
const coreScriptHeader = 5

// runRearmedCoreScript runs data's operations in two halves: the first half
// under data's header on a new node for coreScriptInstance, which is then
// re-armed (Reset) for the next instance and runs the second half against
// the oracle and a freshly built node. A re-armed node keeps its process and
// system size, so both halves share the header but for the proposal, which
// the second half flips.
func runRearmedCoreScript(t *testing.T, name string, data []byte) {
	t.Helper()
	if len(data) < coreScriptHeader {
		return
	}
	mid := coreScriptHeader + (len(data)-coreScriptHeader)/2
	nd := driveCoreScript(t, name+"/first", data[:mid], nil)
	head := append([]byte(nil), data[:coreScriptHeader]...)
	head[2]++ // the proposal byte
	driveCoreScript(t, name+"/rearmed", append(head, data[mid:]...), nd)
}

// driveCoreScript decodes data and runs it against the oracle and a Node: a
// new one for coreScriptInstance when nd is nil, else nd re-armed for the
// instance after its own, which must then also match a freshly built node.
// The header picks the system size, this process, its proposal, the gadget
// ablation and MaxRounds. It returns the node it drove.
func driveCoreScript(t *testing.T, name string, data []byte, nd *Node) *Node {
	t.Helper()
	r := &scriptReader{data: data}
	spec := coreScriptSizes[r.next(len(coreScriptSizes))]
	peers := types.Processes(spec.N())
	byzantine := peers[spec.N()-spec.F():]
	cfg := Config{
		Me: peers[r.next(len(peers))], Peers: peers, Spec: spec,
		Coin: coin.NewIdeal(int64(len(data))), Proposal: types.Value(r.next(2)),
		Instance: coreScriptInstance, DisableDecideGadget: r.next(4) == 0,
		MaxRounds: coreScriptMaxRounds[r.next(len(coreScriptMaxRounds))],
	}
	if nd != nil {
		cfg.Instance = nd.cfg.Instance + 1
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &coreScriptRun{t: t, name: name, got: fresh}
	if nd != nil {
		rearm := cfg
		rearm.Coin = coin.NewIdeal(int64(len(data)))
		if err := nd.Reset(rearm); err != nil {
			t.Fatal(err)
		}
		s.got, s.fresh = nd, fresh
	}
	cfg.Coin = coin.NewIdeal(int64(len(data)))
	s.want = newOracleNode(cfg)
	out := s.got.Start()
	s.check("Start", out, s.want.start())
	if s.fresh != nil {
		s.checkFresh("Start", out, s.fresh.Start())
	}
	for s.op = 1; !r.done() && s.op <= maxCoreScriptOps; s.op++ {
		o := s.want
		switch coreScriptOps[r.next(len(coreScriptOps))] {
		case opCopy:
			sender := o.unheard(o.round, o.step, r.next(len(peers)))
			s.deliverStep(sender, types.StepMessage{Round: o.round, Step: o.step, V: o.value, D: o.dFlag && o.step == types.Step3})
		case opNow:
			step := types.Step(1 + r.next(int(o.step)))
			sender := o.unheard(o.round, step, r.next(len(peers)))
			s.deliverStep(sender, o.plausible(o.round, step, r.next(4)))
		case opStep:
			sender := byzantine[r.next(len(byzantine))]
			round := max(1, o.round+coreScriptOffsets[r.next(len(coreScriptOffsets))])
			s.deliverStep(sender, readStep(r, round, types.Step(1+r.next(3))))
		case opAny:
			sender := peers[r.next(len(peers))]
			round := 1 + r.next(o.maxRounds+3)
			s.deliverStep(sender, readStep(r, round, types.Step(1+r.next(3))))
		case opDecide:
			from := peers[r.next(len(peers))]
			v := types.Value(r.next(2))
			instance := o.instance
			if r.next(4) == 0 {
				instance++
			}
			s.deliverDecide(from, v, instance)
		}
	}
	return s.got
}

// scriptReader reads one operand per byte, modulo its range; past the end
// every operand reads 0.
type scriptReader struct{ data []byte }

func (r *scriptReader) done() bool { return len(r.data) == 0 }

func (r *scriptReader) next(mod int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % mod
}

// coreScript writes a script by value. Senders are process IDs and rounds
// are absolute.
type coreScript struct{ data []byte }

// newCoreScript writes the header: the index into coreScriptSizes, this
// process, its proposal, the gadget ablation and the index into
// coreScriptMaxRounds.
func newCoreScript(size int, me types.ProcessID, proposal types.Value, gadgetOff bool, maxRounds int) *coreScript {
	return &coreScript{data: []byte{byte(size), byte(me - 1), byte(proposal), boolByte(!gadgetOff), byte(maxRounds)}}
}

func (b *coreScript) op(op int, operands ...byte) *coreScript {
	b.data = append(append(b.data, byte(slices.Index(coreScriptOps, op))), operands...)
	return b
}

// send delivers sender's message for (round, step) with value v, a D(v) if
// d, whether or not it is justified.
func (b *coreScript) send(sender types.ProcessID, round int, step types.Step, v types.Value, d bool) *coreScript {
	return b.op(opAny, byte(sender-1), byte(round-1), byte(step-1), byte(v), boolByte(d))
}

// sends delivers one message per sender for (round, step), with the
// values of vs in order.
func (b *coreScript) sends(round int, step types.Step, d bool, vs ...types.Value) *coreScript {
	for i, v := range vs {
		b.send(types.ProcessID(i+1), round, step, v, d)
	}
	return b
}

// copies delivers the node's own current step message k times, each from
// the first peer not yet heard in its slot.
func (b *coreScript) copies(k int) *coreScript {
	for ; k > 0; k-- {
		b.op(opCopy, 0)
	}
	return b
}

func (b *coreScript) decide(sender types.ProcessID, v types.Value, foreign bool) *coreScript {
	return b.op(opDecide, byte(sender-1), byte(v), boolByte(!foreign))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// coreOracleCases are the named scripts; testdata/fuzz/FuzzCoreMatchesOracle
// holds the same bytes as the fuzzer's seed corpus.
func coreOracleCases() map[string][]byte {
	const zero, one = types.Zero, types.One
	s1, s2, s3 := types.Step1, types.Step2, types.Step3
	cases := map[string][]byte{}

	// n=4, MaxRounds=3: copies of the node's own messages carry it through
	// round after round, deciding 1 in round 1, until it stalls entering
	// round 4; messages for rounds past MaxRounds still fold, and three
	// DECIDE votes halt it, after which nothing counts.
	b := newCoreScript(0, 1, one, false, 0).copies(30)
	b.send(2, 4, s1, one, false).send(3, 5, s2, one, false).send(4, 6, s3, one, true)
	b.decide(2, one, false).decide(3, one, false).decide(4, one, false).copies(1)
	cases["unanimous-to-max-rounds"] = b.data

	// Rounds out of order: round 2's step 1 and round 1's steps 3 and 2
	// arrive first and stay pending (unjustified) until round 1's step-1
	// messages land, then fold in one cascade.
	b = newCoreScript(0, 2, zero, false, 1)
	b.sends(2, s1, false, zero, zero, zero, zero).sends(1, s3, true, zero, zero, zero, zero)
	b.sends(1, s2, false, zero, zero, zero, zero).sends(1, s1, false, zero, zero, zero, zero)
	cases["rounds-out-of-order"] = b.data

	// Duplicate senders: each peer's round-1 slots are delivered again
	// with the other value, before and after the first copy was justified;
	// only the first delivery per slot counts.
	b = newCoreScript(1, 5, one, false, 1)
	for _, v := range []types.Value{one, zero, one} {
		b.sends(1, s1, false, v, v, v, v, v)
	}
	b.sends(1, s2, false, one, zero, one, one, one).sends(1, s2, false, zero, zero, zero, zero, zero)
	cases["duplicate-senders"] = b.data

	// n=4: round 1 splits 2–2 in steps 1 and 2, so step 3 carries no D
	// and falls to the coin; round 2 gets three D(1) justified but its
	// window holds only f+1 = 2, so the node adopts 1; round 3 decides.
	b = newCoreScript(0, 1, zero, false, 1)
	b.sends(1, s1, false, zero, one, one, zero).sends(1, s2, false, one, zero, one, zero)
	b.sends(1, s3, false, one, zero, one)
	b.sends(2, s1, false, one, one, zero, zero).sends(2, s2, false, one, one, one, zero)
	b.send(1, 2, s3, one, true).send(2, 2, s3, one, true).send(3, 2, s3, zero, false).send(4, 2, s3, one, true)
	b.copies(9)
	cases["coin-then-adopt"] = b.data

	// Rounds below the node's floor: once it is in round 4, a round-1
	// message from a peer never heard there is justified and folded, but
	// its wait was released, so it is dropped.
	b = newCoreScript(0, 1, one, false, 1)
	b.sends(1, s1, false, one, one, one).copies(30).send(4, 1, s1, one, false)
	cases["late-fold-below-floor"] = b.data

	// DECIDE votes at n=7: a vote for the next instance, a repeated vote,
	// votes for both values, f+1 matching votes (relay), 2f+1 (decide
	// and halt) in round 1's step 2, and traffic after the halt.
	b = newCoreScript(2, 1, one, false, 1)
	b.decide(2, zero, true).decide(2, zero, false).decide(2, zero, false).decide(3, one, false)
	b.decide(4, zero, false).decide(5, one, false).decide(6, zero, false).copies(5)
	b.decide(7, zero, false).decide(1, zero, false).copies(5).decide(3, one, false)
	cases["decide-votes"] = b.data

	// The gadget off: the node decides and never broadcasts DECIDE, yet
	// 2f+1 votes still halt it.
	b = newCoreScript(0, 3, zero, true, 1).copies(9)
	b.decide(1, zero, false).decide(2, zero, false).decide(4, zero, false).copies(3)
	cases["gadget-off"] = b.data
	return cases
}

// TestCoreMatchesOracle runs the named scripts and random ones.
func TestCoreMatchesOracle(t *testing.T) {
	for name, data := range coreOracleCases() {
		runCoreScript(t, name, data)
	}
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 5+rng.Intn(1500))
		rng.Read(data)
		runCoreScript(t, fmt.Sprintf("random-%d", trial), data)
	}
}

// TestRearmedCoreMatchesFresh re-arms a node that ran one script for the
// next instance and drives a second: every emitted message (by field),
// decision, round, count and retainer must equal a freshly built node's, and
// the oracle's. The pairs are every named case after every named case (the
// second under the first's header), then 300 random scripts split in two.
func TestRearmedCoreMatchesFresh(t *testing.T) {
	cases := coreOracleCases()
	names := slices.Sorted(maps.Keys(cases))
	for _, a := range names {
		for _, b := range names {
			first, second := cases[a], cases[b]
			nd := driveCoreScript(t, a, first, nil)
			driveCoreScript(t, a+"/then/"+b, append(first[:coreScriptHeader:coreScriptHeader], second[coreScriptHeader:]...), nd)
		}
	}
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 5+rng.Intn(1500))
		rng.Read(data)
		runRearmedCoreScript(t, fmt.Sprintf("random-%d", trial), data)
	}
}

// TestCoreOracleCorpusCurrent: the checked-in seed corpus is the named
// cases' bytes, so an edited case cannot leave a stale seed behind.
func TestCoreOracleCorpusCurrent(t *testing.T) {
	for name, data := range coreOracleCases() {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCoreMatchesOracle", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(data)); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

// FuzzCoreMatchesOracle runs each input as one script on a new node, then
// split in two halves across a re-arm.
func FuzzCoreMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runCoreScript(t, "fuzz", data)
		runRearmedCoreScript(t, "fuzz", data)
	})
}

package acs

// This file checks Node against oracleNode, a test-only copy of the node
// that keeps its per-proposer state in seven parallel tables indexed by
// proposer from 1 (slot 0 unused) and classifies payloads itself; the copy
// differs from the node it was taken from only in dropping non-peer
// traffic at its door. Scripts
// drive both with one sequence of deliveries: traffic recorded from real
// n=4 and n=7 clusters under the local and the common coin (in recorded
// order, picked out of order, repeated, flushed one plane and instance at a
// time) and forged traffic (binary instances outside 1..n, DECIDE instances
// at or below 0, input tags past the last proposer, senders outside the
// peer set). After every delivery both must emit the same messages, in
// order and field by field, and read the same Output().

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// oracleNode is the reference ACS participant: per-proposer tables of n+1
// slots, slot i for proposer Peers[i-1].
type oracleNode struct {
	cfg  Config
	spec quorum.Spec

	values *rbc.Broadcaster // input dissemination

	bins     []*core.Node      // binary instance per proposer index (1-based)
	pending  [][]types.Message // traffic for instances not yet started
	inputs   []string          // rbc-delivered inputs by proposer index
	hasInput []bool
	decided  []types.Value // binary decisions by proposer index
	resolved []bool        // decided[idx] is set
	voted    []bool        // instances this node has an opinion in
	ones     int           // instances decided 1
	resolves int           // instances decided (either way)
	output   []Proposal
	done     bool

	sim.OutBuffer
}

// newOracleNode builds the reference for a config New accepted.
func newOracleNode(cfg Config) *oracleNode {
	n := cfg.Spec.N()
	return &oracleNode{
		cfg:      cfg,
		spec:     cfg.Spec,
		values:   rbc.New(cfg.Me, cfg.Peers, cfg.Spec),
		bins:     make([]*core.Node, n+1),
		pending:  make([][]types.Message, n+1),
		inputs:   make([]string, n+1),
		hasInput: make([]bool, n+1),
		decided:  make([]types.Value, n+1),
		resolved: make([]bool, n+1),
		voted:    make([]bool, n+1),
	}
}

func (n *oracleNode) ID() types.ProcessID { return n.cfg.Me }

func (n *oracleNode) Done() bool { return false }

func (n *oracleNode) Start() []types.Message {
	i, _ := n.spec.Index(n.cfg.Me)
	return n.values.AppendBroadcast(n.Take(), types.Tag{Seq: valueNS + i + 1}, n.cfg.Input)
}

func (n *oracleNode) Deliver(m types.Message) []types.Message {
	out := n.Take()
	if _, peer := n.spec.Index(m.From); !peer {
		// The one rule added to the copy: traffic from outside the peer
		// set is dropped before any plane sees it (core would echo a
		// non-peer's SEND of its own instance, buffered or not).
		return n.harvest(out)
	}
	switch inst, kind := n.classify(m); kind {
	case oracleValues:
		var deliveries []rbc.Delivery
		out, deliveries, _ = n.values.AppendHandlePayload(out, m.From, m.Payload)
		for _, d := range deliveries {
			idx := d.ID.Tag.Seq - valueNS
			if i, ok := n.spec.Index(d.ID.Sender); !ok || idx != i+1 {
				continue
			}
			if n.hasInput[idx] {
				continue
			}
			n.hasInput[idx] = true
			n.inputs[idx] = d.Body
			n.values.Compact(d.ID)
			out = n.vote(out, idx, types.One)
		}
	case oracleCoin:
		for idx := 1; idx <= n.spec.N(); idx++ {
			if bin := n.bins[idx]; bin != nil {
				out = bin.AppendDeliver(out, m)
			}
		}
	case oracleBinary:
		switch {
		case inst < 1 || inst > n.spec.N():
		case n.bins[inst] != nil:
			out = n.bins[inst].AppendDeliver(out, m)
		case !n.voted[inst]:
			n.pending[inst] = append(n.pending[inst], m)
		}
	}
	return n.harvest(out)
}

func (n *oracleNode) Output() ([]Proposal, bool) {
	if !n.done {
		return nil, false
	}
	return append([]Proposal(nil), n.output...), true
}

type oracleTraffic int

const (
	oracleValues oracleTraffic = iota + 1
	oracleBinary
	oracleCoin
)

func (n *oracleNode) classify(m types.Message) (int, oracleTraffic) {
	if id, ok := types.BroadcastID(m.Payload); ok {
		if id.Tag.Seq >= valueNS {
			return 0, oracleValues
		}
		return id.Tag.Seq, oracleBinary
	}
	switch p := m.Payload.(type) {
	case *types.DecidePayload:
		return p.Instance, oracleBinary
	case *types.CoinSharePayload:
		return 0, oracleCoin
	default:
		return 0, oracleBinary
	}
}

func (n *oracleNode) vote(out []types.Message, idx int, v types.Value) []types.Message {
	if n.voted[idx] {
		return out
	}
	n.voted[idx] = true
	bin, err := core.New(core.Config{
		Me:       n.cfg.Me,
		Peers:    n.cfg.Peers,
		Spec:     n.spec,
		Coin:     n.cfg.NewCoin(idx),
		Proposal: v,
		Instance: idx,
	})
	if err != nil {
		panic(fmt.Sprintf("acs oracle: starting BA_%d: %v", idx, err))
	}
	n.bins[idx] = bin
	out = bin.AppendStart(out)
	for _, m := range n.pending[idx] {
		out = bin.AppendDeliver(out, m)
	}
	n.pending[idx] = nil
	return out
}

func (n *oracleNode) harvest(out []types.Message) []types.Message {
	for idx := 1; idx <= n.spec.N(); idx++ {
		bin := n.bins[idx]
		if bin == nil || n.resolved[idx] {
			continue
		}
		if v, ok := bin.Decided(); ok {
			n.resolved[idx] = true
			n.decided[idx] = v
			n.resolves++
			if v == types.One {
				n.ones++
			}
		}
	}
	if n.ones >= n.spec.Quorum() {
		for idx := 1; idx <= n.spec.N(); idx++ {
			out = n.vote(out, idx, types.Zero)
		}
	}
	if !n.done && n.resolves == n.spec.N() {
		for idx := 1; idx <= n.spec.N(); idx++ {
			if n.decided[idx] == types.One && !n.hasInput[idx] {
				return out
			}
		}
		n.done = true
		for idx := 1; idx <= n.spec.N(); idx++ {
			n.values.Compact(types.InstanceID{
				Sender: n.cfg.Peers[idx-1],
				Tag:    types.Tag{Seq: valueNS + idx},
			})
			if n.decided[idx] == types.One {
				n.output = append(n.output, Proposal{
					Proposer: n.cfg.Peers[idx-1],
					Value:    n.inputs[idx],
				})
			}
		}
	}
	return out
}

// poolCluster is one recorded run: n processes, the last `absent` of them
// silent, under the local or the common coin and uniform delays.
type poolCluster struct {
	name         string
	n, f, absent int
	common       bool
	seed         int64
}

var poolClusters = []poolCluster{
	{name: "n4-local", n: 4, f: 1, absent: 1, seed: 5},
	{name: "n4-common", n: 4, f: 1, common: true, seed: 6},
	{name: "n7-local", n: 7, f: 2, seed: 7},
	{name: "n7-common", n: 7, f: 2, absent: 2, common: true, seed: 8},
}

func (c poolCluster) input(p types.ProcessID) string { return fmt.Sprintf("input-of-%v", p) }

// newCoins returns each process's coin factory. Every call deals a new set
// of common-coin dealers from the cluster's seed, so the factories of two
// calls share no coin state.
func (c poolCluster) newCoins() func(p types.ProcessID) func(int) coin.Coin {
	if !c.common {
		return func(p types.ProcessID) func(int) coin.Coin {
			return func(inst int) coin.Coin { return coin.NewLocal(c.seed + int64(p)*1000 + int64(inst)) }
		}
	}
	spec, peers := quorum.MustNew(c.n, c.f), types.Processes(c.n)
	dealers := make([]*coin.Dealer, c.n+1)
	for i := 1; i <= c.n; i++ {
		dealers[i] = coin.NewDealer(spec, c.seed+int64(i)*77)
	}
	return func(p types.ProcessID) func(int) coin.Coin {
		return func(inst int) coin.Coin { return coin.NewCommon(p, peers, dealers[inst]) }
	}
}

// recordingNode logs every message delivered to its node.
type recordingNode struct {
	*oracleNode
	log *[]types.Message
}

func (r recordingNode) Deliver(m types.Message) []types.Message {
	*r.log = append(*r.log, detach(m))
	return r.oracleNode.Deliver(m)
}

// detach copies m's payload, so no node ever holds a payload another node
// or a later script also reads.
func detach(m types.Message) types.Message {
	switch p := m.Payload.(type) {
	case *types.RBCPayload:
		c := *p
		m.Payload = &c
	case *types.DecidePayload:
		c := *p
		m.Payload = &c
	case *types.CoinSharePayload:
		c := *p
		m.Payload = &c
	}
	return m
}

// recorded holds each cluster's traffic once recorded: per live process,
// the messages delivered to it, in delivery order.
var recorded = make([][][]types.Message, len(poolClusters))

func recordedPools(t testing.TB, c int) [][]types.Message {
	t.Helper()
	if recorded[c] != nil {
		return recorded[c]
	}
	cl := poolClusters[c]
	spec, peers := quorum.MustNew(cl.n, cl.f), types.Processes(cl.n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: cl.seed})
	if err != nil {
		t.Fatal(err)
	}
	coins := cl.newCoins()
	pools := make([][]types.Message, cl.n-cl.absent)
	nodes := make([]*oracleNode, len(pools))
	for i, p := range peers[:len(pools)] {
		nodes[i] = newOracleNode(Config{Me: p, Peers: peers, Spec: spec, NewCoin: coins(p), Input: cl.input(p)})
		if err := net.Add(recordingNode{nodes[i], &pools[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func() bool {
		for _, nd := range nodes {
			if _, ok := nd.Output(); !ok {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	recorded[c] = pools
	return pools
}

// The planes a flush selects recorded traffic by.
const (
	poolValues = iota // input dissemination, by proposer
	poolSteps         // step-message broadcasts, by binary instance
	poolDecide        // DECIDE votes, by binary instance
	poolCoin          // coin shares, of every instance
	poolPlanes
)

// poolPlane names a recorded message's plane and the instance it belongs
// to (the proposer's wire number for inputs, 0 for coin shares).
func poolPlane(m types.Message) (plane, inst int) {
	switch p := m.Payload.(type) {
	case *types.RBCPayload:
		if p.ID.Tag.Seq >= valueNS {
			return poolValues, p.ID.Tag.Seq - valueNS
		}
		return poolSteps, p.ID.Tag.Seq
	case *types.DecidePayload:
		return poolDecide, p.Instance
	default:
		return poolCoin, 0
	}
}

// The script format. A script is a byte string: a two-byte header picking
// the recorded cluster and this process among its live ones, then
// operations, each a kind byte followed by its operands. Every operand byte
// is taken modulo its range, so any byte string is a valid script.
const (
	opNext  = iota // k: the next k+1 recorded messages, in recorded order
	opRest         // every recorded message opNext has not reached yet, in order
	opPick         // hi, lo: the recorded message at that index, out of order
	opAgain        // the last message delivered, again
	opFlush        // plane, instance: every recorded message of the plane and instance (0: all), in order
	opForge        // kind, instance, sender, value: a message no process of the cluster sent
	opFrom         // hi, lo, sender: a recorded message, delivered as if from another sender
	opStep         // instance, sender, round, step, value, D: a step message, through a READY quorum
)

var acsScriptOps = []int{
	opNext, opNext, opPick, opNext, opAgain, opFlush, opForge, opFrom,
	opNext, opNext, opPick, opStep, opPick, opFlush, opForge, opNext,
	opNext, opNext, opPick, opNext, opAgain, opFlush, opForge, opFrom,
	opNext, opNext, opPick, opStep, opPick, opFlush, opForge, opRest,
}

// The forged kinds.
const (
	forgeStep   = iota // a SEND of sender's round-1 step-1 message (value) in binary instance inst
	forgeEcho          // sender's ECHO of p1's round-1 step-1 message (value) in instance inst
	forgeDecide        // sender's DECIDE vote for value in instance inst
	forgeCoin          // sender's round-1 coin share, with no valid MAC
	forgeInput         // a SEND of sender's input tagged valueNS+inst
	forgeKinds
)

// forgeInstances are the instance numbers forged traffic names: every
// proposer's, and those outside 1..n (inputs tagged past valueNS+n, binary
// tags inside the input namespace).
func forgeInstances(n int) []int {
	return []int{-1, 0, 1, 2, n - 1, n, n + 1, valueNS, 1 << 30}
}

// scriptSenders are the peers and four processes outside the peer set.
func scriptSenders(n int) []types.ProcessID {
	return append(types.Processes(n), 0, types.ProcessID(n+1), 1<<20, -2)
}

// maxACSScriptOps bounds one script's length, keeping fuzz iterations fast.
const maxACSScriptOps = 2000

// acsScriptRun holds the nodes a script drives.
type acsScriptRun struct {
	t    *testing.T
	name string
	op   int
	got  *Node
	want *oracleNode
	last types.Message
}

func (s *acsScriptRun) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s: op %d: %s", s.name, s.op, fmt.Sprintf(format, args...))
}

// deliver hands each node its own copy of m and compares what they emit
// and output; both buffers are then recycled.
func (s *acsScriptRun) deliver(m types.Message) {
	s.t.Helper()
	s.last = m
	got, want := s.got.Deliver(detach(m)), s.want.Deliver(detach(m))
	s.check(m, got, want)
	s.got.Recycle(got)
	s.want.Recycle(want)
}

// check fails unless got and want are the same messages in the same order,
// field by field, and both nodes output the same subset (or neither yet).
func (s *acsScriptRun) check(m types.Message, got, want []types.Message) {
	s.t.Helper()
	if len(got) != len(want) {
		s.fail("%v: %d messages, oracle %d:\n got %v\nwant %v", m, len(got), len(want), got, want)
	}
	for i := range got {
		if !sameMessage(got[i], want[i]) {
			s.fail("%v: message %d is %v, oracle %v", m, i, got[i], want[i])
		}
	}
	g, gok := s.got.Output()
	w, wok := s.want.Output()
	if gok != wok || !slices.Equal(g, w) {
		s.fail("%v: Output() = %v/%v, oracle %v/%v", m, g, gok, w, wok)
	}
}

func sameMessage(a, b types.Message) bool {
	if a.From != b.From || a.To != b.To {
		return false
	}
	switch p := a.Payload.(type) {
	case *types.RBCPayload:
		q, ok := b.Payload.(*types.RBCPayload)
		return ok && *p == *q
	case *types.DecidePayload:
		q, ok := b.Payload.(*types.DecidePayload)
		return ok && *p == *q
	case *types.CoinSharePayload:
		q, ok := b.Payload.(*types.CoinSharePayload)
		return ok && *p == *q
	}
	return reflect.DeepEqual(a.Payload, b.Payload)
}

// forge builds one message no process of the cluster sent, to me.
func forge(kind, inst int, from, me types.ProcessID, v types.Value) types.Message {
	step := types.StepMessage{Round: 1, Step: types.Step1, V: v}
	body, err := wire.EncodeStep(step)
	if err != nil {
		body = "not a step message"
	}
	m := types.Message{From: from, To: me}
	switch kind {
	case forgeStep:
		m.Payload = &types.RBCPayload{Phase: types.KindRBCSend, Body: body,
			ID: types.InstanceID{Sender: from, Tag: types.Tag{Round: 1, Step: types.Step1, Seq: inst}}}
	case forgeEcho:
		m.Payload = &types.RBCPayload{Phase: types.KindRBCEcho, Body: body,
			ID: types.InstanceID{Sender: 1, Tag: types.Tag{Round: 1, Step: types.Step1, Seq: inst}}}
	case forgeDecide:
		m.Payload = &types.DecidePayload{V: v, Instance: inst}
	case forgeCoin:
		m.Payload = &types.CoinSharePayload{Round: 1, Share: "share", MAC: "mac"}
	default:
		m.Payload = &types.RBCPayload{Phase: types.KindRBCSend, Body: "forged input",
			ID: types.InstanceID{Sender: from, Tag: types.Tag{Seq: valueNS + inst}}}
	}
	return m
}

// runACSScript decodes data and runs it against a new Node and oracle. It
// reports whether the oracle produced its output.
func runACSScript(t *testing.T, name string, data []byte) bool {
	t.Helper()
	r := &scriptReader{data: data}
	c := r.next(len(poolClusters))
	cl := poolClusters[c]
	pools := recordedPools(t, c)
	me := types.ProcessID(1 + r.next(len(pools)))
	pool := pools[me-1]
	peers := types.Processes(cl.n)
	senders := scriptSenders(cl.n)
	instances := forgeInstances(cl.n)
	cfg := Config{Me: me, Peers: peers, Spec: quorum.MustNew(cl.n, cl.f), NewCoin: cl.newCoins()(me), Input: cl.input(me)}
	nd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewCoin = cl.newCoins()(me)
	s := &acsScriptRun{t: t, name: name, got: nd, want: newOracleNode(cfg)}
	got, want := s.got.Start(), s.want.Start()
	s.check(types.Message{}, got, want)
	s.got.Recycle(got)
	s.want.Recycle(want)

	cursor := 0
	for s.op = 1; !r.done() && s.op <= maxACSScriptOps; s.op++ {
		switch acsScriptOps[r.next(len(acsScriptOps))] {
		case opNext:
			for k := 1 + r.next(32); k > 0 && cursor < len(pool); k-- {
				s.deliver(pool[cursor])
				cursor++
			}
		case opRest:
			for ; cursor < len(pool); cursor++ {
				s.deliver(pool[cursor])
			}
		case opPick:
			s.deliver(pool[r.index(len(pool))])
		case opAgain:
			if s.last.Payload != nil {
				s.deliver(s.last)
			}
		case opFlush:
			plane, inst := r.next(poolPlanes), r.next(cl.n+1)
			for _, m := range pool {
				if p, i := poolPlane(m); p == plane && (inst == 0 || i == inst) {
					s.deliver(m)
				}
			}
		case opForge:
			kind, inst := r.next(forgeKinds), instances[r.next(len(instances))]
			from, v := senders[r.next(len(senders))], types.Value(r.next(3))
			s.deliver(forge(kind, inst, from, me, v))
		case opFrom:
			m := pool[r.index(len(pool))]
			m.From = senders[r.next(len(senders))]
			s.deliver(m)
		case opStep:
			inst, sender := 1+r.next(cl.n), peers[r.next(cl.n)]
			step := types.StepMessage{Round: 1 + r.next(2), Step: types.Step(1 + r.next(3)), V: types.Value(r.next(2))}
			step.D = r.next(2) == 1 && step.Step == types.Step3
			body, err := wire.EncodeStep(step)
			if err != nil {
				t.Fatal(err)
			}
			id := types.InstanceID{Sender: sender, Tag: types.Tag{Round: step.Round, Step: step.Step, Seq: inst}}
			for _, p := range peers[:2*cl.f+1] {
				s.deliver(types.Message{From: p, To: me, Payload: &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body}})
			}
		}
	}
	_, ok := s.want.Output()
	return ok
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

// index reads a two-byte operand modulo size.
func (r *scriptReader) index(size int) int {
	return (r.next(256)<<8 | r.next(256)) % size
}

// acsScript writes a script by value.
type acsScript struct {
	n    int
	data []byte
}

// newACSScript writes the header: the index into poolClusters and this
// process.
func newACSScript(cluster int, me types.ProcessID) *acsScript {
	return &acsScript{n: poolClusters[cluster].n, data: []byte{byte(cluster), byte(me - 1)}}
}

func (b *acsScript) op(op int, operands ...byte) *acsScript {
	b.data = append(append(b.data, byte(slices.Index(acsScriptOps, op))), operands...)
	return b
}

func (b *acsScript) next(k int) *acsScript { return b.op(opNext, byte(k-1)) }

func (b *acsScript) rest() *acsScript { return b.op(opRest) }

func (b *acsScript) pick(i int) *acsScript { return b.op(opPick, byte(i>>8), byte(i)) }

func (b *acsScript) again() *acsScript { return b.op(opAgain) }

// flush delivers the recorded traffic of one plane and instance, or of the
// plane's every instance for inst 0.
func (b *acsScript) flush(plane, inst int) *acsScript { return b.op(opFlush, byte(plane), byte(inst)) }

// flushAll flushes the given planes of instances insts, instance by
// instance.
func (b *acsScript) flushAll(planes []int, insts ...int) *acsScript {
	for _, inst := range insts {
		for _, plane := range planes {
			b.flush(plane, inst)
		}
	}
	return b
}

func (b *acsScript) forge(kind, inst int, from types.ProcessID, v types.Value) *acsScript {
	return b.op(opForge, byte(kind), byte(slices.Index(forgeInstances(b.n), inst)),
		byte(slices.Index(scriptSenders(b.n), from)), byte(v))
}

// step delivers sender's step message in binary instance inst to the
// node's reliable broadcast through READYs from the first 2f+1 peers.
func (b *acsScript) step(inst int, sender types.ProcessID, round int, step types.Step, v types.Value, d bool) *acsScript {
	var dByte byte
	if d {
		dByte = 1
	}
	return b.op(opStep, byte(inst-1), byte(sender-1), byte(round-1), byte(step-1), byte(v), dByte)
}

// from delivers the recorded message at index i as if from sender.
func (b *acsScript) from(i int, sender types.ProcessID) *acsScript {
	return b.op(opFrom, byte(i>>8), byte(i), byte(slices.Index(scriptSenders(b.n), sender)))
}

// Indices into poolClusters.
const (
	n4Local = iota
	n4Common
	n7Local
	n7Common
)

// acsOracleCases are the named scripts; testdata/fuzz/FuzzACSMatchesOracle
// holds the same bytes as the fuzzer's seed corpus. The cases named
// "in-order-*" and "ones-*" must reach an output.
func acsOracleCases() map[string][]byte {
	cases := map[string][]byte{}
	all := []int{poolValues, poolSteps, poolDecide, poolCoin}
	binary := []int{poolSteps, poolDecide, poolCoin}

	// Each cluster's traffic to one process, as it arrived.
	for c, cl := range poolClusters {
		cases["in-order-"+cl.name] = newACSScript(c, types.ProcessID(1+c%2)).rest().data
	}

	// Every instance's binary traffic arrives before any input, so it all
	// waits in the buffers and replays into each instance as it opens.
	cases["binary-before-inputs"] = newACSScript(n4Common, 2).
		flush(poolCoin, 0).flush(poolDecide, 0).flush(poolSteps, 0).flush(poolValues, 0).rest().data
	cases["binary-before-inputs-n7"] = newACSScript(n7Local, 4).
		flushAll(binary, 7, 6, 5, 4, 3, 2, 1).flush(poolValues, 0).rest().data

	// The n−f'th instance to decide 1 opens the 0-vote phase: inputs and
	// their instances' traffic arrive proposer by proposer, k of them
	// before the rest of the recording, for k around n−f.
	for c, cl := range poolClusters {
		for k := cl.n - cl.f - 1; k <= cl.n-cl.f+1 && k <= cl.n; k++ {
			insts := make([]int, k)
			for i := range insts {
				insts[i] = cl.n - i
			}
			cases[fmt.Sprintf("ones-%d-first-%s", k, cl.name)] = newACSScript(c, 1).flushAll(all, insts...).rest().data
		}
	}

	// The 0-vote phase opens before the last inputs land: every instance's
	// binary traffic waits, inputs arrive from the highest proposer down,
	// and the lowest two land after the node already voted 0 there.
	cases["late-inputs-after-zero-votes"] = newACSScript(n7Local, 3).
		flush(poolSteps, 0).flush(poolDecide, 0).flush(poolCoin, 0).
		flushAll([]int{poolValues}, 7, 6, 5, 4, 3, 2, 1).rest().data

	// Coin shares of every instance before any instance opens, then twice
	// more once they are open.
	cases["coin-before-open"] = newACSScript(n7Common, 5).
		flush(poolCoin, 0).next(200).flush(poolCoin, 0).rest().flush(poolCoin, 0).data

	// Instances outside 1..n from a peer, for every forged kind, before,
	// during and after the run.
	b := newACSScript(n4Common, 3)
	for round := 0; round < 3; round++ {
		for kind := 0; kind < forgeKinds; kind++ {
			for _, inst := range forgeInstances(4) {
				b.forge(kind, inst, 2, types.Value(kind%2))
			}
		}
		b.next(150)
	}
	cases["out-of-range-instances"] = b.rest().data

	// Senders outside the peer set, for every forged kind and instance
	// before the instances open and after, and recorded traffic re-sent
	// from them.
	b = newACSScript(n7Common, 2)
	for _, from := range scriptSenders(7)[7:] {
		for kind := 0; kind < forgeKinds; kind++ {
			for inst := 1; inst <= 7; inst++ {
				b.forge(kind, inst, from, types.One)
			}
		}
	}
	b.next(250)
	for i, from := range scriptSenders(7)[7:] {
		b.forge(forgeStep, 1, from, types.Zero).forge(forgeDecide, 2, from, types.Zero).
			forge(forgeCoin, 1, from, types.Zero).from(40*i, from).from(300+40*i, from).next(100)
	}
	cases["non-peer-senders"] = b.rest().data

	// Instance 2 falls to the coin in round 1 while instance 1 is open too:
	// its step-1 messages split 2–2, step 2 has no supermajority, step 3
	// carries no D, and only the recorded round-1 coin shares (every
	// instance's, fanned to every open instance) let it enter round 2.
	b = newACSScript(n4Common, 1).flush(poolValues, 1).flush(poolValues, 2)
	zero, one := types.Zero, types.One
	for _, sv := range []struct {
		from types.ProcessID
		v    types.Value
	}{{1, one}, {2, zero}, {3, zero}, {4, one}} {
		b.step(2, sv.from, 1, types.Step1, sv.v, false)
	}
	b.step(2, 1, 1, types.Step2, zero, false).step(2, 2, 1, types.Step2, one, false).step(2, 3, 1, types.Step2, one, false)
	b.step(2, 1, 1, types.Step3, zero, false).step(2, 2, 1, types.Step3, one, false).step(2, 3, 1, types.Step3, zero, false)
	cases["coin-in-second-instance"] = b.flush(poolCoin, 0).rest().data

	// Recorded traffic out of order and twice: a stride through the
	// recording from the back, each message delivered again.
	b = newACSScript(n4Local, 1)
	for i := 1200; i >= 0; i -= 7 {
		b.pick(i).again()
	}
	cases["reordered-duplicates"] = b.rest().data
	return cases
}

// TestACSMatchesOracle runs the named scripts and random ones.
func TestACSMatchesOracle(t *testing.T) {
	for name, data := range acsOracleCases() {
		ok := runACSScript(t, name, data)
		if !ok && (strings.HasPrefix(name, "in-order-") || strings.HasPrefix(name, "ones-")) {
			t.Errorf("%s: no output", name)
		}
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 2+rng.Intn(600))
		rng.Read(data)
		runACSScript(t, fmt.Sprintf("random-%d", trial), data)
	}
}

// TestACSOracleCorpusCurrent: the checked-in seed corpus is the named
// cases' bytes, so an edited case cannot leave a stale seed behind.
func TestACSOracleCorpusCurrent(t *testing.T) {
	for name, data := range acsOracleCases() {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzACSMatchesOracle", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(data)); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

// FuzzACSMatchesOracle runs each input as one script.
func FuzzACSMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runACSScript(t, "fuzz", data)
	})
}

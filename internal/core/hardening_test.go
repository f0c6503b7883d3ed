package core

import (
	"testing"

	"repro/internal/check"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// newTestNode builds a standalone node for white-box delivery tests.
func newTestNode(t *testing.T, me types.ProcessID, instance int) *Node {
	t.Helper()
	nd, err := New(Config{
		Me: me, Peers: types.Processes(4), Spec: quorum.MustNew(4, 1),
		Coin: coin.NewIdeal(1), Proposal: types.One, Instance: instance,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// deliverRBCBody short-circuits reliable broadcast: it feeds the node the
// full SEND/ECHO/READY flow for one instance so the body is rbc-delivered.
func deliverRBCBody(nd *Node, sender types.ProcessID, tag types.Tag, body string) {
	id := types.InstanceID{Sender: sender, Tag: tag}
	nd.Deliver(types.Message{From: sender, To: nd.ID(),
		Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body}})
	for _, p := range types.Processes(4) {
		nd.Deliver(types.Message{From: p, To: nd.ID(),
			Payload: &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body}})
	}
	for _, p := range types.Processes(4) {
		nd.Deliver(types.Message{From: p, To: nd.ID(),
			Payload: &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body}})
	}
}

func TestTagBodyMismatchIgnored(t *testing.T) {
	nd := newTestNode(t, 1, 0)
	nd.Start()

	// Byzantine p4 broadcasts a body claiming round 2 step 2 under a round-1
	// step-1 tag: the delivery must not be recorded anywhere.
	body, err := wire.EncodeStep(types.StepMessage{Round: 2, Step: types.Step2, V: types.One})
	if err != nil {
		t.Fatal(err)
	}
	before := nd.val.SeenRetained()
	deliverRBCBody(nd, 4, types.Tag{Round: 1, Step: types.Step1}, body)
	if got := nd.val.SeenRetained(); got != before {
		t.Errorf("mismatched tag/body was recorded (%d -> %d)", before, got)
	}
}

func TestGarbageBodyIgnored(t *testing.T) {
	nd := newTestNode(t, 1, 0)
	nd.Start()
	before := nd.val.SeenRetained()
	deliverRBCBody(nd, 4, types.Tag{Round: 1, Step: types.Step1}, "\xff\xff\xff garbage")
	if got := nd.val.SeenRetained(); got != before {
		t.Errorf("garbage body was recorded (%d -> %d)", before, got)
	}
}

// TestNonPeerStepIgnored: a step message that a sender outside the peers
// 1..n got rbc-delivered (its SEND echoed by the peers) holds no vote.
func TestNonPeerStepIgnored(t *testing.T) {
	nd := newTestNode(t, 1, 0)
	nd.Start()
	body, err := wire.EncodeStep(types.StepMessage{Round: 1, Step: types.Step1, V: types.One})
	if err != nil {
		t.Fatal(err)
	}
	before := nd.val.SeenRetained()
	for _, sender := range []types.ProcessID{5, 99, 0, -1} {
		deliverRBCBody(nd, sender, types.Tag{Round: 1, Step: types.Step1}, body)
	}
	if got := nd.val.SeenRetained(); got != before {
		t.Errorf("non-peer step messages were recorded (%d -> %d)", before, got)
	}
}

// TestNonPeerReachesNoBroadcaster: only peers reach the node's broadcaster.
// 1 000 SENDs from p9, each its own instance (a distinct Seq), make a fresh
// n=4 node echo nothing and open no instance, where a broadcaster without
// the door sends 4 000 ECHOs and keeps 1 000 live instances. An ECHO from a
// peer naming a non-peer's instance opens none either.
func TestNonPeerReachesNoBroadcaster(t *testing.T) {
	nd := newTestNode(t, 1, 0)
	body, err := wire.EncodeStep(types.StepMessage{Round: 1, Step: types.Step1, V: types.One})
	if err != nil {
		t.Fatal(err)
	}
	echoes := 0
	for seq := range 1000 {
		id := types.InstanceID{Sender: 9, Tag: types.Tag{Round: 1, Step: types.Step1, Seq: seq}}
		out := nd.Deliver(types.Message{From: 9, To: 1,
			Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body}})
		for _, m := range out {
			if p, ok := m.Payload.(*types.RBCPayload); ok && p.Phase == types.KindRBCEcho {
				echoes++
			}
		}
	}
	if live := nd.RBCLiveInstances(); echoes != 0 || live != 0 {
		t.Errorf("1000 SENDs from p9: %d ECHOs sent, %d live rbc instances; want 0 and 0", echoes, live)
	}
	before := nd.RBCLiveInstances()
	id := types.InstanceID{Sender: 9, Tag: types.Tag{Round: 1, Step: types.Step1, Seq: 1000}}
	nd.Deliver(types.Message{From: 2, To: 1, Payload: &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body}})
	if opened := nd.RBCLiveInstances() - before; opened != 0 {
		t.Errorf("an ECHO from p2 for p9's instance opened %d rbc instances, want 0", opened)
	}
}

func TestForeignInstanceIgnored(t *testing.T) {
	nd := newTestNode(t, 1, 7) // this node is instance 7
	nd.Start()

	// A well-formed message for instance 3 must be invisible to instance 7.
	body, err := wire.EncodeStep(types.StepMessage{Round: 1, Step: types.Step1, V: types.Zero})
	if err != nil {
		t.Fatal(err)
	}
	before := nd.val.SeenRetained()
	deliverRBCBody(nd, 2, types.Tag{Round: 1, Step: types.Step1, Seq: 3}, body)
	if got := nd.val.SeenRetained(); got != before {
		t.Errorf("foreign-instance step message recorded (%d -> %d)", before, got)
	}

	// Same for the decide gadget.
	for _, from := range []types.ProcessID{2, 3, 4} {
		nd.Deliver(types.Message{From: from, To: 1, Payload: &types.DecidePayload{V: types.One, Instance: 3}})
	}
	if _, decided := nd.Decided(); decided {
		t.Error("node decided from foreign-instance DECIDE quorum")
	}
}

func TestForgedDecidesBelowThresholdIgnored(t *testing.T) {
	nd := newTestNode(t, 1, 0)
	nd.Start()
	// f = 1 forged DECIDE: below the f+1 relay threshold, nothing happens.
	out := nd.Deliver(types.Message{From: 4, To: 1, Payload: &types.DecidePayload{V: types.Zero}})
	if len(out) != 0 {
		t.Errorf("single forged DECIDE triggered %d messages", len(out))
	}
	if _, decided := nd.Decided(); decided {
		t.Error("node decided from a single forged DECIDE")
	}
	// Duplicate from the same sender must not inch the count upward.
	for i := 0; i < 5; i++ {
		nd.Deliver(types.Message{From: 4, To: 1, Payload: &types.DecidePayload{V: types.Zero}})
	}
	if _, decided := nd.Decided(); decided {
		t.Error("repeated forged DECIDEs from one sender reached the threshold")
	}
}

func TestDecideGadgetQuorumHalts(t *testing.T) {
	nd := newTestNode(t, 1, 0)
	nd.Start()
	// f+1 = 2 matching DECIDEs: relay. 2f+1 = 3: decide and halt.
	out := nd.Deliver(types.Message{From: 2, To: 1, Payload: &types.DecidePayload{V: types.One}})
	if len(out) != 0 {
		t.Fatal("one DECIDE must not relay")
	}
	out = nd.Deliver(types.Message{From: 3, To: 1, Payload: &types.DecidePayload{V: types.One}})
	if len(out) != 4 {
		t.Fatalf("f+1 DECIDEs relayed %d messages, want broadcast of 4", len(out))
	}
	nd.Deliver(types.Message{From: 4, To: 1, Payload: &types.DecidePayload{V: types.One}})
	// The node's own relayed DECIDE also counts once delivered back; here
	// three distinct peers suffice.
	v, decided := nd.Decided()
	if !decided || v != types.One {
		t.Fatalf("decided=%v v=%v after 2f+1 DECIDEs", decided, v)
	}
	if !nd.Done() {
		t.Fatal("node must halt after the decide quorum")
	}
}

func TestMultiInstanceIsolationEndToEnd(t *testing.T) {
	// Two consensus instances with *opposite* unanimous inputs run over one
	// network. Instance 1 must decide 0 and instance 2 must decide 1 at
	// every process — any cross-talk would drag them together.
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ a, b *Node }
	pairs := make([]pair, 0, 4)
	for _, p := range peers {
		a, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin: coin.NewIdeal(1), Proposal: types.Zero, Instance: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin: coin.NewIdeal(2), Proposal: types.One, Instance: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{a: a, b: b})
		if err := net.Add(&fanNode{id: p, parts: []*Node{a, b}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func() bool {
		for _, pr := range pairs {
			if !pr.a.Done() || !pr.b.Done() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		if v, ok := pr.a.Decided(); !ok || v != types.Zero {
			t.Errorf("instance 1 at %v: decided=%v v=%v, want 0", pr.a.ID(), ok, v)
		}
		if v, ok := pr.b.Decided(); !ok || v != types.One {
			t.Errorf("instance 2 at %v: decided=%v v=%v, want 1", pr.b.ID(), ok, v)
		}
	}
}

// fanNode multiplexes several instance-scoped nodes of one process onto a
// single network identity, delivering every message to every part (the
// parts' instance filters do the routing).
type fanNode struct {
	id    types.ProcessID
	parts []*Node
}

func (f *fanNode) ID() types.ProcessID { return f.id }

func (f *fanNode) Start() []types.Message {
	var out []types.Message
	for _, p := range f.parts {
		out = append(out, p.Start()...)
	}
	return out
}

func (f *fanNode) Deliver(m types.Message) []types.Message {
	var out []types.Message
	for _, p := range f.parts {
		if !p.Done() {
			out = append(out, p.Deliver(m)...)
		}
	}
	return out
}

func (f *fanNode) Done() bool {
	for _, p := range f.parts {
		if !p.Done() {
			return false
		}
	}
	return true
}

func TestPermanentPartitionDetectedAsLivenessLoss(t *testing.T) {
	// Failure injection outside the model: permanently dropping all links
	// between the halves {p1, p2} and {p3, p4} (the asynchronous model
	// promises eventual delivery; this breaks it). The run must quiesce
	// undecided and the checkers must report exactly a termination
	// violation — no safety loss.
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	net, err := sim.New(sim.Config{
		Scheduler: sim.Compose{
			Base: sim.UniformDelay{Min: 1, Max: 10},
			Rules: []sim.Rule{func(m types.Message, at, _ sim.Time) sim.Time {
				if (m.From <= 2) != (m.To <= 2) {
					return sim.Drop
				}
				return at
			}},
		},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 0, 4)
	for i, p := range peers {
		nd, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin: coin.NewIdeal(3), Proposal: types.Value(i % 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		if err := net.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := net.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exhausted {
		t.Fatal("partitioned run must quiesce, not exhaust")
	}
	obs := check.ConsensusObservation{
		Proposals: map[types.ProcessID]types.Value{},
		Decisions: map[types.ProcessID][]types.Value{},
		Quiesced:  true,
	}
	for i, nd := range nodes {
		obs.Correct = append(obs.Correct, nd.ID())
		obs.Proposals[nd.ID()] = types.Value(i % 2)
		if v, ok := nd.Decided(); ok {
			obs.Decisions[nd.ID()] = []types.Value{v}
		}
	}
	vs := check.Consensus(obs)
	if len(vs) == 0 {
		t.Fatal("permanent partition went undetected")
	}
	for _, v := range vs {
		if v.Property != check.PropTermination {
			t.Errorf("unexpected violation %v (only termination may fail under partition)", v)
		}
	}
}

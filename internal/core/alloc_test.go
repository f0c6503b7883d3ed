package core

// Allocation-regression and pruning tests for the zero-allocation delivery
// spine. BenchmarkCoreDelivery is the honest end-to-end number (run with
// -benchmem: expect 0 allocs/op). That allocs/op is an integer floor, so
// per-round costs and a path that allocates on a fraction of deliveries
// both read 0; internal/runner's TestRunAllocationsPerDelivery counts whole
// runs per thousand deliveries instead. The AllocsPerRun tests pin the strict
// steady-state paths at exactly zero so a future change cannot silently
// reintroduce per-delivery garbage; the pruning tests pin the invariant
// that state for round r is released once round r+1 decides, and that late
// messages for pruned rounds are dropped without disturbing decisions.

import (
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// BenchmarkCoreDelivery measures the full per-delivery cost of Bracha
// consensus on the simulator: recycled output buffers, dense accepted
// table, per-round pruning. The decide gadget is disabled so the run never
// halts and every one of the b.N deliveries exercises the steady-state
// path; per-round costs (three step broadcasts, fresh RBC instances, one
// validator tally) amortize across the ~2n³ deliveries each round takes.
func BenchmarkCoreDelivery(b *testing.B) {
	const n, f = 16, 5
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{
		Scheduler:     sim.UniformDelay{Min: 1, Max: 20},
		Seed:          1,
		MaxDeliveries: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range peers {
		nd, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:                coin.NewLocal(int64(p) * 1000),
			Proposal:            types.Value(i % 2),
			DisableDecideGadget: true,
			MaxRounds:           1 << 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Add(nd); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	stats, err := net.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Delivered != b.N {
		b.Fatalf("delivered %d, want %d", stats.Delivered, b.N)
	}
}

// stalledCluster runs an all-correct cluster with the decide gadget off
// until every node stalls at maxRounds, then returns the nodes — warm,
// round-advanced state for the steady-state and pruning tests below.
func stalledCluster(t *testing.T, n, f, maxRounds int) []*Node {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 0, n)
	for i, p := range peers {
		nd, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:                coin.NewLocal(5 + int64(p)*1000),
			Proposal:            types.Value(i % 2),
			DisableDecideGadget: true,
			MaxRounds:           maxRounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		if err := net.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(nil); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if nd.Round() != maxRounds {
			t.Fatalf("%v stopped in round %d, want stall at %d", nd.ID(), nd.Round(), maxRounds)
		}
	}
	return nodes
}

// retainer is one per-round count a node keeps; the round-floor prune must
// hold each to the current and previous rounds.
type retainer struct {
	name  string
	count func(*Node) int
}

var retainers = []retainer{
	{"accepted messages", (*Node).AcceptedRetained},
	{"live RBC instances", (*Node).RBCLiveInstances},
	{"validator seen entries", (*Node).ValidatorSeenRetained},
}

// TestPruningBoundsRetainedState: entering round r prunes below r−1, so
// doubling the rounds run from 6 to 12 leaves the accepted table, the live
// RBC instances and the validator's seen entries exactly as large as they
// were.
func TestPruningBoundsRetainedState(t *testing.T) {
	const n, f = 4, 1
	short := stalledCluster(t, n, f, 6)
	long := stalledCluster(t, n, f, 12)
	for i, nd := range long {
		for _, r := range retainers {
			if got, was := r.count(nd), r.count(short[i]); got != was {
				t.Errorf("%v %s: %d at 6 rounds, %d at 12, want equal", nd.ID(), r.name, was, got)
			}
		}
	}
}

// TestWindowBoundsEveryRetainer: after 12 rounds every retainer holds at
// most two rounds × 3 steps × n entries, and the compaction counter shows
// RBC instances were actually released rather than never created.
func TestWindowBoundsEveryRetainer(t *testing.T) {
	const n, f, rounds = 4, 1, 12
	bound := 2 * 3 * n
	for _, nd := range stalledCluster(t, n, f, rounds) {
		for _, r := range retainers {
			if got := r.count(nd); got > bound {
				t.Errorf("%v retains %d %s, want ≤ %d", nd.ID(), got, r.name, bound)
			}
		}
		if nd.RBCCompacted() == 0 {
			t.Errorf("%v compacted no RBC instances over %d rounds", nd.ID(), rounds)
		}
	}
}

// TestUnprunedRetainersGrowWithRounds is the control: what the round floor
// does not prune — compacted RBC records and their digest bytes, and the
// validator's per-round justification digests — grows from 6 to 12 rounds,
// so the flat counts above come from the prune, not from a run that stopped
// producing state.
func TestUnprunedRetainersGrowWithRounds(t *testing.T) {
	const n, f = 4, 1
	short := stalledCluster(t, n, f, 6)
	long := stalledCluster(t, n, f, 12)
	for i, nd := range long {
		for _, c := range []retainer{
			{"compacted RBC instances", (*Node).RBCCompacted},
			{"RBC digest bytes", (*Node).RBCDigestBytes},
			{"justification digests", (*Node).JustificationsRetained},
		} {
			if got, was := c.count(nd), c.count(short[i]); got <= was {
				t.Errorf("%v %s did not grow with rounds: %d (12r) vs %d (6r)", nd.ID(), c.name, got, was)
			}
		}
	}
}

// lateRoundOneReadies crafts the 2f+1 READY messages that make nd
// reliably-deliver a round-1 step-1 message from `sender` — a sender slot
// the node has never seen, so the validator folds it and the accepted
// table must decide whether to store it.
func lateRoundOneReadies(t *testing.T, nd *Node, sender types.ProcessID, peers []types.ProcessID) []types.Message {
	t.Helper()
	body, err := wire.EncodeStep(types.StepMessage{Round: 1, Step: types.Step1, V: types.Zero})
	if err != nil {
		t.Fatal(err)
	}
	id := types.InstanceID{Sender: sender, Tag: types.Tag{Round: 1, Step: types.Step1}}
	msgs := make([]types.Message, 0, len(peers))
	for _, p := range peers {
		msgs = append(msgs, types.Message{From: p, To: nd.ID(),
			Payload: &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body}})
	}
	return msgs
}

// TestLateMessageForPrunedRoundDropped: a straggler's round-1 broadcast
// arriving when the node is many rounds ahead is counted by the validator
// (its tallies stay live for justification) but dropped from the accepted
// table, without disturbing the node's decision or retained state.
func TestLateMessageForPrunedRoundDropped(t *testing.T) {
	const n, f, rounds = 4, 1, 8
	nodes := stalledCluster(t, n, f, rounds)
	nd := nodes[0]
	decidedBefore, okBefore := nd.Decided()
	retainedBefore := nd.AcceptedRetained()

	// A fifth process is not a peer; use a peer whose round-1 slot is
	// taken — no. Every peer's round-1 slot is already seen in a full
	// run, so replay a genuine peer's broadcast under a *different* tag:
	// round 1 was pruned (base = rounds−1), so the fold is dropped.
	sender := nodes[1].ID()
	for _, m := range lateRoundOneReadies(t, nd, sender, types.Processes(n)) {
		out := nd.Deliver(m)
		nd.Recycle(out)
	}
	if nd.Stats().PrunedLate != 0 {
		// The slot was already seen: the validator deduplicates it before
		// the accepted table is consulted, which is also a legal drop.
		t.Logf("late replay dropped by accepted table (%d)", nd.Stats().PrunedLate)
	}
	if got := nd.AcceptedRetained(); got != retainedBefore {
		t.Errorf("late pruned-round traffic grew the accepted table: %d -> %d", retainedBefore, got)
	}
	decidedAfter, okAfter := nd.Decided()
	if okBefore != okAfter || decidedBefore != decidedAfter {
		t.Errorf("late pruned-round traffic changed the decision: %v/%v -> %v/%v",
			decidedBefore, okBefore, decidedAfter, okAfter)
	}
}

// TestLateFoldForPrunedRoundCounted drives the accepted-table drop path
// directly: a cluster with one silent peer leaves that peer's round-1 slot
// unseen, so a late crafted broadcast from it folds through the validator
// and must be dropped by the pruned table (PrunedLate counts it).
func TestLateFoldForPrunedRoundCounted(t *testing.T) {
	const n, f, maxRounds = 4, 1, 8
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	silent := peers[n-1]
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 0, n-1)
	for i, p := range peers[:n-1] {
		nd, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:                coin.NewLocal(7 + int64(p)*1000),
			Proposal:            types.Value(i % 2),
			DisableDecideGadget: true,
			MaxRounds:           maxRounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		if err := net.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(nil); err != nil {
		t.Fatal(err)
	}
	nd := nodes[0]
	if nd.Round() != maxRounds {
		t.Fatalf("node stalled at round %d, want %d", nd.Round(), maxRounds)
	}
	retainedBefore := nd.AcceptedRetained()
	decidedBefore, okBefore := nd.Decided()
	for _, m := range lateRoundOneReadies(t, nd, silent, peers) {
		out := nd.Deliver(m)
		nd.Recycle(out)
	}
	if got := nd.Stats().PrunedLate; got == 0 {
		t.Error("late justified fold for a pruned round was not counted as dropped")
	}
	if got := nd.AcceptedRetained(); got != retainedBefore {
		t.Errorf("pruned-round fold grew the accepted table: %d -> %d", retainedBefore, got)
	}
	decidedAfter, okAfter := nd.Decided()
	if okBefore != okAfter || decidedBefore != decidedAfter {
		t.Errorf("pruned-round fold changed the decision: %v/%v -> %v/%v",
			decidedBefore, okBefore, decidedAfter, okAfter)
	}
}

// TestCoreSteadyStateDeliveryAllocations pins the strict hot paths of a
// warm, round-advanced node at exactly zero allocations per delivery:
// sub-threshold echo counting (the dominant delivery of any big-n run),
// duplicate votes, and late coin shares for pruned rounds.
func TestCoreSteadyStateDeliveryAllocations(t *testing.T) {
	const n, f, rounds = 4, 1, 8
	nodes := stalledCluster(t, n, f, rounds)
	nd := nodes[0]

	body, err := wire.EncodeStep(types.StepMessage{Round: rounds, Step: types.Step1, V: types.Zero})
	if err != nil {
		t.Fatal(err)
	}
	echo := types.Message{From: 2, To: nd.ID(), Payload: &types.RBCPayload{
		Phase: types.KindRBCEcho,
		ID:    types.InstanceID{Sender: 3, Tag: types.Tag{Round: rounds, Step: types.Step1}},
		Body:  body,
	}}
	// Warm the tally for this (instance, body) once, then measure.
	nd.Recycle(nd.Deliver(echo))
	cases := []struct {
		name string
		m    types.Message
	}{
		{"duplicate-echo", echo},
		{"duplicate-decide", types.Message{From: 2, To: nd.ID(),
			Payload: &types.DecidePayload{V: types.One}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				nd.Recycle(nd.Deliver(tc.m))
			})
			if allocs != 0 {
				t.Errorf("steady-state delivery cost %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestPrunedCoinShareAllocations pins the pruned coin drop path: a common
// coin that has advanced past a round drops that round's late shares with
// zero allocations and zero retained growth.
func TestPrunedCoinShareAllocations(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	dealer := coin.NewDealer(spec, 3)
	c := coin.NewCommon(1, peers, dealer)
	// Obtain round 1 properly, then prune it away.
	c.Release(1)
	share, mac := dealer.ShareFor(2, 1)
	c.HandleShare(2, &types.CoinSharePayload{Round: 1, Share: share, MAC: mac})
	c.Prune(5)
	late := &types.CoinSharePayload{Round: 1, Share: share, MAC: mac}
	allocs := testing.AllocsPerRun(200, func() {
		c.HandleShare(2, late)
	})
	if allocs != 0 {
		t.Errorf("pruned coin share cost %.1f allocs/op, want 0", allocs)
	}
	if _, ok := c.Value(1); ok {
		t.Error("pruned round regrew a coin value from a late share")
	}
	if msgs := c.Release(1); msgs != nil {
		t.Errorf("pruned round released shares: %v", msgs)
	}
}

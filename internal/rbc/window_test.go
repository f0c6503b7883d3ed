package rbc

// Pruning tests: compaction of terminal instances to delivered records
// must be invisible to the protocol (late messages get the exact silence the
// retained terminal state would have produced), must actually release the
// full-fidelity state, and must refuse to touch instances that could still
// emit.

import (
	"math"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// runInstance pumps one full broadcast from sender through a cluster and
// returns it, with every correct instance terminal.
func runInstance(t *testing.T, n, f int, tag types.Tag, body string) *cluster {
	t.Helper()
	c := newCluster(t, n, f, types.Processes(n))
	c.enqueue(c.correct[1].Broadcast(tag, body))
	c.pump()
	return c
}

func TestCompactReleasesTerminalInstance(t *testing.T) {
	tag := types.Tag{Round: 1, Step: types.Step1}
	id := types.InstanceID{Sender: 1, Tag: tag}
	c := runInstance(t, 4, 1, tag, "payload")
	b := c.correct[2]

	if !b.Delivered(id) {
		t.Fatal("instance not delivered before compaction")
	}
	if b.Instances() != 1 || b.Compacted() != 0 {
		t.Fatalf("live/compacted = %d/%d before compaction, want 1/0", b.Instances(), b.Compacted())
	}
	if !b.Compact(id) {
		t.Fatal("Compact refused a terminal instance")
	}
	if b.Instances() != 0 || b.Compacted() != 1 {
		t.Fatalf("live/compacted = %d/%d after compaction, want 0/1", b.Instances(), b.Compacted())
	}
	if !b.Delivered(id) {
		t.Error("Delivered(id) lost by compaction")
	}
	if b.Compact(id) {
		t.Error("Compact reported success on an already-compacted instance")
	}
}

// TestCompactedInstanceAnswersLateMessagesWithSilence: every late message
// kind for a compacted instance produces no output, no delivery, no state
// regrowth, and no allocation — exactly what the retained terminal state
// would have done.
func TestCompactedInstanceAnswersLateMessagesWithSilence(t *testing.T) {
	tag := types.Tag{Round: 1, Step: types.Step1}
	id := types.InstanceID{Sender: 1, Tag: tag}
	c := runInstance(t, 4, 1, tag, "payload")
	b := c.correct[2]
	if !b.Compact(id) {
		t.Fatal("Compact refused a terminal instance")
	}

	late := []*types.RBCPayload{
		{Phase: types.KindRBCSend, ID: id, Body: "payload"},
		{Phase: types.KindRBCSend, ID: id, Body: "equivocation"},
		{Phase: types.KindRBCEcho, ID: id, Body: "payload"},
		{Phase: types.KindRBCReady, ID: id, Body: "forgery"},
	}
	for _, p := range late {
		from := types.ProcessID(1)
		if p.Phase != types.KindRBCSend {
			from = 3
		}
		out, ds := b.Handle(from, p)
		if len(out) != 0 || len(ds) != 0 {
			t.Errorf("late %v for compacted instance emitted %d msgs, %d deliveries", p.Phase, len(out), len(ds))
		}
	}
	if b.Instances() != 0 {
		t.Errorf("late traffic regrew %d live instances from a compacted record", b.Instances())
	}
	echo := late[2]
	allocs := testing.AllocsPerRun(200, func() {
		b.AppendHandle(nil, 3, echo)
	})
	if allocs != 0 {
		t.Errorf("late message for compacted instance cost %.1f allocs/op, want 0", allocs)
	}
}

// TestCompactRefusesNonTerminalInstance: an instance that has not delivered
// (or never echoed) may still owe the network messages, so compaction must
// leave it at full fidelity — the totality half of the pruning contract.
func TestCompactRefusesNonTerminalInstance(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	b := New(2, peers, spec)
	id := types.InstanceID{Sender: 1, Tag: types.Tag{Round: 1, Step: types.Step1}}

	// Only the SEND arrived: echoed, but neither readied nor delivered.
	out, _ := b.Handle(1, &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "m"})
	if len(out) == 0 {
		t.Fatal("SEND produced no echo")
	}
	if b.Compact(id) {
		t.Fatal("Compact released a non-terminal instance")
	}
	if b.PruneBelow(100) != 0 {
		t.Fatal("PruneBelow released a non-terminal instance")
	}
	if b.Instances() != 1 {
		t.Fatalf("live instances = %d, want 1", b.Instances())
	}
	// The instance must still amplify: 2f+1 READYs deliver.
	for _, from := range []types.ProcessID{1, 3, 4} {
		_, ds := b.Handle(from, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "m"})
		for _, d := range ds {
			if d.Body != "m" {
				t.Fatalf("delivered %q, want %q", d.Body, "m")
			}
		}
	}
	if !b.Delivered(id) {
		t.Fatal("instance failed to deliver after being spared by compaction")
	}
}

// TestPruneBelowWindowsByRound: PruneBelow compacts terminal instances
// strictly below the floor, skips roundless (Tag.Round == 0) instances —
// those belong to per-slot owners — and leaves the window's rounds live.
func TestPruneBelowWindowsByRound(t *testing.T) {
	n, f := 4, 1
	c := newCluster(t, n, f, types.Processes(n))
	tags := []types.Tag{
		{Round: 1, Step: types.Step1},
		{Round: 2, Step: types.Step1},
		{Round: 3, Step: types.Step1},
		{Seq: 9}, // roundless: SMR/ACS namespace
	}
	for _, tag := range tags {
		c.enqueue(c.correct[1].Broadcast(tag, "body"))
	}
	c.pump()
	b := c.correct[2]
	if b.Instances() != len(tags) {
		t.Fatalf("live instances = %d, want %d", b.Instances(), len(tags))
	}
	if got := b.PruneBelow(3); got != 2 {
		t.Fatalf("PruneBelow(3) released %d instances, want 2 (rounds 1 and 2)", got)
	}
	if b.Instances() != 2 || b.Compacted() != 2 {
		t.Fatalf("live/compacted = %d/%d, want 2/2", b.Instances(), b.Compacted())
	}
	for _, tag := range tags {
		if !b.Delivered(types.InstanceID{Sender: 1, Tag: tag}) {
			t.Errorf("instance %v no longer Delivered after pruning", tag)
		}
	}
	// Idempotent: nothing below the floor is left to release.
	if got := b.PruneBelow(3); got != 0 {
		t.Errorf("second PruneBelow(3) released %d instances, want 0", got)
	}
}

// TestWindowFloodStaysInOverflow: SENDs from one Byzantine peer for distinct
// far-future rounds and foreign consensus instances each cost one
// overflow-map entry and never touch the window, whose size is fixed when it
// opens. Rounds the window cannot index — math.MinInt, 0, negative, and
// math.MaxInt while the floor is low — land in the map too: the bounds are
// checked before round − floor is formed, so nothing wraps into a cell.
func TestWindowFloodStaysInOverflow(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	b := New(2, peers, spec)
	b.Broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: 5}, "own")
	b.PruneBelow(3)
	cells := len(b.win)
	if cells != windowRounds*3*len(peers) {
		t.Fatalf("window has %d cells, want %d", cells, windowRounds*3*len(peers))
	}
	const byz = types.ProcessID(4)
	flood := 0
	send := func(tag types.Tag) {
		t.Helper()
		id := types.InstanceID{Sender: byz, Tag: tag}
		if b.cell(id) != nil {
			t.Fatalf("%v indexes the window at floor %d", id, b.winBase)
		}
		out, _ := b.Handle(byz, &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "x"})
		if len(out) != len(peers) {
			t.Fatalf("SEND %v echoed %d messages, want %d", id, len(out), len(peers))
		}
		flood++
		if len(b.win) != cells || b.winLive != 0 || len(b.instances) != flood || b.Instances() != flood {
			t.Fatalf("after %d flood SENDs: %d window cells, %d live in the window, %d in the overflow map",
				flood, len(b.win), b.winLive, len(b.instances))
		}
	}
	for i := 0; i < 500; i++ {
		send(types.Tag{Round: 3 + windowRounds + i, Step: types.Step1, Seq: 5}) // past the window
		send(types.Tag{Round: 3, Step: types.Step1, Seq: 6 + i})                // another consensus instance
	}
	for _, r := range []int{math.MinInt, math.MinInt + 1, -1, 0, math.MaxInt - 1, math.MaxInt} {
		for s := types.Step1; s <= types.Step3; s++ {
			send(types.Tag{Round: r, Step: s, Seq: 5})
		}
	}
	// A floor jump to the top of the range: only math.MaxInt itself is
	// within the span now, and it moves in from the overflow map.
	b.PruneBelow(math.MaxInt)
	if b.winLive != 3 || len(b.instances) != flood-3 {
		t.Fatalf("at floor MaxInt: %d live in the window, %d in the map; want 3 and %d", b.winLive, len(b.instances), flood-3)
	}
}

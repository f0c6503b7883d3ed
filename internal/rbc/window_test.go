package rbc

// Pruning tests: compaction of terminal instances to delivered records
// must be invisible to the protocol (late messages get the exact silence the
// retained terminal state would have produced), must actually release the
// full-fidelity state, and must refuse to touch instances that could still
// emit.

import (
	"fmt"
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

// TestReleasedCopiesKeepTheirBodies: the SEND, ECHO and READY copies of an
// instance stay intact after the instance is released while they are still
// in flight. Process 1 broadcasts, echoes, readies and delivers one
// instance, and releases it — by Compact, or by PruneBelow sliding the
// window past it — with every copy undelivered. It then creates a dozen
// instances with other bodies, enough to hand out every slot of any block
// of instance or payload storage the released one shared. Only then are the
// held copies checked field by field and delivered to process 2, which must
// echo, ready and deliver the original body; 2's quorums need process 1's
// held ECHO and READY, so a rewritten copy stalls them. Storage that handed
// a released instance out again would rewrite the copies' payloads.
func TestReleasedCopiesKeepTheirBodies(t *testing.T) {
	for _, release := range []string{"compact", "prune"} {
		t.Run(release, func(t *testing.T) {
			spec := quorum.MustNew(4, 1)
			peers := types.Processes(4)
			b1, b2 := New(1, peers, spec), New(2, peers, spec)
			tag := types.Tag{Round: 1, Step: types.Step2, Seq: 7}
			id := types.InstanceID{Sender: 1, Tag: tag}
			const body = "original"

			// to2 picks the copy addressed to process 2 out of a fan-out.
			to2 := func(out []types.Message) types.Message {
				t.Helper()
				for _, m := range out {
					if m.To == 2 {
						return m
					}
				}
				t.Fatalf("no copy for process 2 among %v", out)
				return types.Message{}
			}
			drive := func(id types.InstanceID, body string) (send, echo, ready types.Message) {
				t.Helper()
				send = to2(b1.Broadcast(id.Tag, body))
				out, _ := b1.Handle(1, send.Payload.(*types.RBCPayload))
				echo = to2(out)
				var delivered bool
				for _, from := range peers {
					out, _ := b1.Handle(from, &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body})
					if len(out) > 0 {
						ready = to2(out)
					}
				}
				for _, from := range peers {
					_, ds := b1.Handle(from, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body})
					delivered = delivered || len(ds) == 1
				}
				if ready.Payload == nil || !delivered {
					t.Fatalf("%v did not ready and deliver at process 1", id)
				}
				return send, echo, ready
			}
			send, echo, ready := drive(id, body)

			switch release {
			case "compact":
				if !b1.Compact(id) {
					t.Fatal("Compact refused a terminal instance")
				}
			case "prune":
				if got := b1.PruneBelow(2); got != 1 {
					t.Fatalf("PruneBelow(2) released %d instances, want 1", got)
				}
			}
			for i := 0; i < 12; i++ {
				other := types.InstanceID{Sender: 1, Tag: types.Tag{Round: 2 + i%2, Step: types.Step(1 + i%3), Seq: 7 + i/6}}
				drive(other, fmt.Sprintf("other-%d", i))
			}

			for _, tt := range []struct {
				m     types.Message
				phase types.Kind
			}{{send, types.KindRBCSend}, {echo, types.KindRBCEcho}, {ready, types.KindRBCReady}} {
				want := types.RBCPayload{Phase: tt.phase, ID: id, Body: body}
				if p := tt.m.Payload.(*types.RBCPayload); *p != want {
					t.Fatalf("held %v copy now reads %v, want %v", tt.phase, *p, want)
				}
			}
			out, _ := b2.Handle(1, send.Payload.(*types.RBCPayload))
			if len(out) != len(peers) || *out[0].Payload.(*types.RBCPayload) != (types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body}) {
				t.Fatalf("held SEND made process 2 emit %v", out)
			}
			readied, delivered := false, false
			for _, m := range []types.Message{
				echo,
				{From: 3, To: 2, Payload: &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body}},
				{From: 4, To: 2, Payload: &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body}},
				ready,
				{From: 3, To: 2, Payload: &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body}},
				{From: 4, To: 2, Payload: &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body}},
			} {
				out, ds := b2.Handle(m.From, m.Payload.(*types.RBCPayload))
				readied = readied || len(out) > 0
				for _, d := range ds {
					if d != (Delivery{ID: id, Body: body}) {
						t.Fatalf("process 2 delivered %v", d)
					}
					delivered = true
				}
			}
			if !readied || !delivered {
				t.Fatalf("process 2 readied %v, delivered %v from the held copies; want both", readied, delivered)
			}
		})
	}
}

// TestWindowRecordsAreRowBits: the delivered records of the window's
// consensus instance are bits of one row per round, grown to the highest
// round recorded, and take no map entry; a record the rows may not hold —
// a round past what the window has slid through, after a floor jump — is a
// map key, as is a round the window reached by that jump. Both answer
// Delivered and silence late traffic, and both count.
func TestWindowRecordsAreRowBits(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	b := New(2, peers, spec)
	b.Broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: 5}, "own")
	terminal := func(id types.InstanceID) {
		t.Helper()
		b.Handle(id.Sender, &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "m"})
		for _, phase := range []types.Kind{types.KindRBCEcho, types.KindRBCReady} {
			for _, from := range peers {
				b.Handle(from, &types.RBCPayload{Phase: phase, ID: id, Body: "m"})
			}
		}
	}
	id := func(round int, s types.Step) types.InstanceID {
		return types.InstanceID{Sender: 1, Tag: types.Tag{Round: round, Step: s, Seq: 5}}
	}
	for r := 1; r <= 8; r++ {
		for s := types.Step1; s <= types.Step3; s++ {
			terminal(id(r, s))
		}
		b.PruneBelow(r)
	}
	if b.Compacted() != 3*7 || len(b.compacted) != 0 || len(b.rows) != 7*b.rowWords {
		t.Fatalf("after rounds 1..7: %d records, %d map keys, %d row words; want 21, 0, %d",
			b.Compacted(), len(b.compacted), len(b.rows), 7*b.rowWords)
	}
	// The floor jumps from 8 to 1000: round 8 leaves the window as a row
	// bit, round 20 (overflow, never in a window) becomes a map key.
	terminal(id(20, types.Step2))
	b.PruneBelow(1000)
	if b.Compacted() != 3*8+1 || len(b.compacted) != 1 || len(b.rows) != 8*b.rowWords {
		t.Fatalf("after the jump: %d records, %d map keys, %d row words; want 25, 1, %d",
			b.Compacted(), len(b.compacted), len(b.rows), 8*b.rowWords)
	}
	// The window now starts at 1000, but the rows' bound rises by at most
	// the window's span per slide: round 1000's record is a map key too,
	// and the rows stay 8 rounds long.
	terminal(id(1000, types.Step1))
	b.PruneBelow(1001)
	if b.Compacted() != 3*8+2 || len(b.compacted) != 2 || len(b.rows) != 8*b.rowWords {
		t.Fatalf("after sliding past round 1000: %d records, %d map keys, %d row words; want 26, 2, %d",
			b.Compacted(), len(b.compacted), len(b.rows), 8*b.rowWords)
	}
	for _, rec := range []types.InstanceID{id(1, types.Step1), id(8, types.Step3), id(20, types.Step2), id(1000, types.Step1)} {
		if !b.Delivered(rec) {
			t.Errorf("%v: Delivered lost by compaction", rec)
		}
		if out, ds := b.Handle(3, &types.RBCPayload{Phase: types.KindRBCEcho, ID: rec, Body: "x"}); len(out)+len(ds) != 0 || b.Instances() != 0 {
			t.Errorf("%v: late ECHO emitted %d messages and %d deliveries, %d live instances", rec, len(out), len(ds), b.Instances())
		}
	}
}

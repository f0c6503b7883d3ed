package rbc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// cluster is a minimal synchronous pump for Broadcasters: FIFO queue, no
// sim dependency, Byzantine processes modelled by injecting raw messages.
type cluster struct {
	t         *testing.T
	spec      quorum.Spec
	correct   map[types.ProcessID]*Broadcaster
	queue     []types.Message
	delivered map[types.ProcessID][]Delivery
	sent      int
}

func newCluster(t *testing.T, n, f int, correct []types.ProcessID) *cluster {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	c := &cluster{
		t:         t,
		spec:      spec,
		correct:   make(map[types.ProcessID]*Broadcaster),
		delivered: make(map[types.ProcessID][]Delivery),
	}
	for _, p := range correct {
		c.correct[p] = New(p, peers, spec)
	}
	return c
}

func (c *cluster) enqueue(msgs []types.Message) {
	c.sent += len(msgs)
	c.queue = append(c.queue, msgs...)
}

func (c *cluster) pump() {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		b, ok := c.correct[m.To]
		if !ok {
			continue // message to a Byzantine or nonexistent process
		}
		p, ok := m.Payload.(*types.RBCPayload)
		if !ok {
			continue
		}
		out, ds := b.Handle(m.From, p)
		c.enqueue(out)
		c.delivered[m.To] = append(c.delivered[m.To], ds...)
	}
}

func (c *cluster) uniqueBodies() map[string]bool {
	bodies := map[string]bool{}
	for _, ds := range c.delivered {
		for _, d := range ds {
			bodies[d.Body] = true
		}
	}
	return bodies
}

func TestCorrectSenderAllDeliver(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		c := newCluster(t, tc.n, tc.f, types.Processes(tc.n))
		tag := types.Tag{Seq: 1}
		c.enqueue(c.correct[1].Broadcast(tag, "payload"))
		c.pump()
		for p, b := range c.correct {
			ds := c.delivered[p]
			if len(ds) != 1 || ds[0].Body != "payload" {
				t.Fatalf("n=%d: %v delivered %v", tc.n, p, ds)
			}
			if !b.Delivered(types.InstanceID{Sender: 1, Tag: tag}) {
				t.Fatalf("n=%d: %v Delivered() is false after delivery", tc.n, p)
			}
		}
	}
}

func TestMessageComplexityQuadratic(t *testing.T) {
	// One broadcast costs exactly n SENDs + n ECHO broadcasts + n READY
	// broadcasts = n + 2n² messages when everyone is correct.
	for _, n := range []int{4, 7, 10} {
		c := newCluster(t, n, quorum.MaxByzantine(n), types.Processes(n))
		c.enqueue(c.correct[1].Broadcast(types.Tag{Seq: 1}, "m"))
		c.pump()
		want := n + 2*n*n
		if c.sent != want {
			t.Errorf("n=%d: %d messages, want %d", n, c.sent, want)
		}
	}
}

func TestValidityWithSilentByzantine(t *testing.T) {
	// f Byzantine processes stay silent; a correct sender's broadcast must
	// still deliver everywhere (thresholds reachable by correct alone).
	n, f := 7, 2
	correct := types.Processes(n)[:n-f]
	c := newCluster(t, n, f, correct)
	c.enqueue(c.correct[1].Broadcast(types.Tag{Seq: 1}, "m"))
	c.pump()
	for _, p := range correct {
		if len(c.delivered[p]) != 1 {
			t.Fatalf("%v delivered %d bodies, want 1", p, len(c.delivered[p]))
		}
	}
}

func TestEquivocatingSenderCannotSplit(t *testing.T) {
	// Byzantine p4 sends body A to p1, p2 and body B to p3, then echoes and
	// readies both bodies to everyone. Correct processes must not deliver
	// different bodies.
	n, f := 4, 1
	byz := types.ProcessID(4)
	correct := types.Processes(3)
	c := newCluster(t, n, f, correct)

	idA := types.InstanceID{Sender: byz, Tag: types.Tag{Seq: 1}}
	send := func(to types.ProcessID, phase types.Kind, body string) types.Message {
		return types.Message{From: byz, To: to, Payload: &types.RBCPayload{Phase: phase, ID: idA, Body: body}}
	}
	c.enqueue([]types.Message{
		send(1, types.KindRBCSend, "A"),
		send(2, types.KindRBCSend, "A"),
		send(3, types.KindRBCSend, "B"),
	})
	for _, p := range correct {
		c.enqueue([]types.Message{
			send(p, types.KindRBCEcho, "A"),
			send(p, types.KindRBCEcho, "B"),
			send(p, types.KindRBCReady, "A"),
			send(p, types.KindRBCReady, "B"),
		})
	}
	c.pump()
	if bodies := c.uniqueBodies(); len(bodies) > 1 {
		t.Fatalf("agreement broken: delivered bodies %v", bodies)
	}
}

func TestEquivocationSymmetricSplitDeliversNothingOrOne(t *testing.T) {
	// n=7, f=2: two Byzantine processes try a 3/2 split among the 5 correct.
	n := 7
	byz := []types.ProcessID{6, 7}
	correct := types.Processes(5)
	c := newCluster(t, n, 2, correct)
	id := types.InstanceID{Sender: 6, Tag: types.Tag{Seq: 9}}
	for i, p := range correct {
		body := "A"
		if i >= 3 {
			body = "B"
		}
		c.enqueue([]types.Message{{From: 6, To: p, Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body}}})
	}
	// Both Byzantine processes echo both bodies to everyone.
	for _, b := range byz {
		for _, p := range correct {
			for _, body := range []string{"A", "B"} {
				c.enqueue([]types.Message{{From: b, To: p, Payload: &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body}}})
			}
		}
	}
	c.pump()
	if bodies := c.uniqueBodies(); len(bodies) > 1 {
		t.Fatalf("agreement broken: %v", bodies)
	}
}

func TestSendFromNonSenderIgnored(t *testing.T) {
	c := newCluster(t, 4, 1, types.Processes(4))
	id := types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 1}}
	// p3 claims to relay p2's SEND: must be ignored (only p2 may SEND for
	// its own instance).
	c.enqueue([]types.Message{{From: 3, To: 1, Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "x"}}})
	c.pump()
	if c.sent != 1 {
		t.Fatalf("spoofed SEND triggered traffic: %d messages", c.sent)
	}
	if len(c.delivered[1]) != 0 {
		t.Fatal("spoofed SEND caused a delivery")
	}
}

func TestDuplicateEchoesCountOnce(t *testing.T) {
	n, f := 4, 1
	c := newCluster(t, n, f, types.Processes(n)[:1]) // only p1 correct, just counting
	b := c.correct[1]
	id := types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 1}}
	var msgs []types.Message
	for i := 0; i < 10; i++ { // p3 echoes the same body ten times
		out, _ := b.Handle(3, &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: "m"})
		msgs = append(msgs, out...)
	}
	if len(msgs) != 0 {
		t.Fatalf("duplicate echoes from one process reached the echo threshold (%d)", c.spec.Echo())
	}
}

func TestReadyAmplificationTotality(t *testing.T) {
	// A process that saw no SEND and no ECHO must still deliver from READYs
	// alone: f+1 READYs make it send its own READY; 2f+1 make it deliver.
	n, f := 4, 1
	c := newCluster(t, n, f, types.Processes(n)[:1])
	b := c.correct[1]
	id := types.InstanceID{Sender: 4, Tag: types.Tag{Seq: 2}}

	out, ds := b.Handle(2, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "m"})
	if len(out) != 0 || len(ds) != 0 {
		t.Fatal("one READY must not trigger anything")
	}
	out, ds = b.Handle(3, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "m"})
	if len(out) != n { // f+1 = 2 readies: p1 broadcasts its own READY
		t.Fatalf("expected READY broadcast after f+1 readies, got %d messages", len(out))
	}
	if len(ds) != 0 {
		t.Fatal("2 readies must not deliver yet")
	}
	// p1's own READY comes back to it via the network; simulate that.
	_, ds = b.Handle(1, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "m"})
	if len(ds) != 1 || ds[0].Body != "m" {
		t.Fatalf("expected delivery at 2f+1 readies, got %v", ds)
	}
	// Further readies must not deliver again (integrity).
	_, ds = b.Handle(4, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "m"})
	if len(ds) != 0 {
		t.Fatal("delivered twice")
	}
}

func TestOnlyOneReadyPerInstance(t *testing.T) {
	// Once a process READYs body A, f+1 readies for body B must not make it
	// send a second READY (the per-instance ready is single-shot; this is
	// what makes two ready quorums for different bodies intersect in correct
	// processes).
	n, f := 4, 1
	c := newCluster(t, n, f, types.Processes(n)[:1])
	b := c.correct[1]
	id := types.InstanceID{Sender: 4, Tag: types.Tag{Seq: 3}}
	_ = f

	b.Handle(2, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "A"})
	out, _ := b.Handle(3, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "A"})
	if len(out) == 0 {
		t.Fatal("expected READY(A)")
	}
	b.Handle(2, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "B"})
	out, _ = b.Handle(3, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "B"})
	if len(out) != 0 {
		t.Fatal("process sent a second READY for a different body")
	}
}

func TestSelfBroadcastDelivers(t *testing.T) {
	// A single-process system (n=1, f=0) must deliver its own broadcast:
	// degenerate but exercises the self-path thresholds.
	c := newCluster(t, 1, 0, types.Processes(1))
	c.enqueue(c.correct[1].Broadcast(types.Tag{Seq: 1}, "solo"))
	c.pump()
	if len(c.delivered[1]) != 1 || c.delivered[1][0].Body != "solo" {
		t.Fatalf("solo delivery failed: %v", c.delivered[1])
	}
}

func TestIndependentInstances(t *testing.T) {
	// Two tags from the same sender and the same tag from two senders are
	// four independent instances.
	c := newCluster(t, 4, 1, types.Processes(4))
	c.enqueue(c.correct[1].Broadcast(types.Tag{Seq: 1}, "a"))
	c.enqueue(c.correct[1].Broadcast(types.Tag{Seq: 2}, "b"))
	c.enqueue(c.correct[2].Broadcast(types.Tag{Seq: 1}, "c"))
	c.enqueue(c.correct[2].Broadcast(types.Tag{Round: 1, Step: types.Step1}, "d"))
	c.pump()
	for p := range c.correct {
		if len(c.delivered[p]) != 4 {
			t.Fatalf("%v delivered %d, want 4: %v", p, len(c.delivered[p]), c.delivered[p])
		}
		got := map[string]bool{}
		for _, d := range c.delivered[p] {
			got[d.Body] = true
		}
		for _, want := range []string{"a", "b", "c", "d"} {
			if !got[want] {
				t.Fatalf("%v missing body %q", p, want)
			}
		}
	}
	if c.correct[1].Instances() != 4 {
		t.Errorf("Instances() = %d, want 4", c.correct[1].Instances())
	}
}

func TestHandleGarbage(t *testing.T) {
	c := newCluster(t, 4, 1, types.Processes(4)[:1])
	b := c.correct[1]
	if out, ds := b.Handle(2, nil); out != nil || ds != nil {
		t.Error("nil payload must be inert")
	}
	bad := &types.RBCPayload{Phase: types.KindDecide, ID: types.InstanceID{Sender: 2}}
	if out, ds := b.Handle(2, bad); out != nil || ds != nil {
		t.Error("non-RBC phase must be inert")
	}
}

func TestDeliveryString(t *testing.T) {
	d := Delivery{ID: types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 5}}, Body: "x"}
	if !strings.Contains(d.String(), "p2@seq5") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestAtBoundaryNEquals3F(t *testing.T) {
	// n = 3f (one fault too many assumed tolerable): safety must still hold
	// for a silent-Byzantine run, but liveness is lost — with f silent, the
	// echo threshold ⌈(n+f+1)/2⌉ exceeds the number of correct processes...
	// verify no delivery and no panic.
	n, f := 6, 2
	correct := types.Processes(4)
	c := newCluster(t, n, f, correct)
	c.enqueue(c.correct[1].Broadcast(types.Tag{Seq: 1}, "m"))
	c.pump()
	// Echo threshold is ⌈9/2⌉ = 5 > 4 correct: nobody delivers.
	for _, p := range correct {
		if len(c.delivered[p]) != 0 {
			t.Fatalf("%v delivered despite unreachable threshold", p)
		}
	}
}

// TestFanoutPayloadReuse: the echo/ready fan-out must reuse the payloads
// embedded in the instance rather than constructing fresh ones — every copy
// of a broadcast shares one pointer.
func TestFanoutPayloadReuse(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	b := New(2, peers, spec)
	id := types.InstanceID{Sender: 1, Tag: types.Tag{Round: 1, Step: types.Step1}}
	send := &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "body"}
	out, _ := b.Handle(1, send)
	if len(out) != len(peers) {
		t.Fatalf("echo fan-out emitted %d messages, want %d", len(out), len(peers))
	}
	first := out[0].Payload
	for i, m := range out {
		if m.Payload != first {
			t.Fatalf("message %d carries a distinct payload pointer", i)
		}
		p := m.Payload.(*types.RBCPayload)
		if p.Phase != types.KindRBCEcho || p.Body != "body" || p.ID != id {
			t.Fatalf("message %d payload = %v", i, p)
		}
	}
}

// TestInstanceLifecycleAllocations pins the allocation count of handling one
// complete reliable-broadcast instance (SEND, full echo round, full ready
// round, delivery) at one process, the way the consensus core drives it: a
// fresh round-tagged instance each iteration, with the floor raised behind
// it. Only handling is measured — the broadcaster is built outside the
// measured function, so whether New inlines into it cannot move the count
// (New has its own pin below). Embedding the echo/ready fan-out payloads in
// the instance removed four allocations, one tally per body carrying both
// the echo and the ready bitset two more, and the inline first tally, the
// chunked bitsets and the reused delivery the last three; a regression above
// the budget means a fresh per-fan-out or per-message allocation crept back
// in.
func TestInstanceLifecycleAllocations(t *testing.T) {
	const n = 7
	const budget = 1 // measured 1: the instance (a bitset chunk every 3·n tallies rounds to 0)
	spec := quorum.MustNew(n, quorum.MaxByzantine(n))
	peers := types.Processes(n)
	b := New(2, peers, spec)
	b.Broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: 1}, "own")
	send := &types.RBCPayload{Phase: types.KindRBCSend, Body: "body"}
	echo := &types.RBCPayload{Phase: types.KindRBCEcho, Body: "body"}
	ready := &types.RBCPayload{Phase: types.KindRBCReady, Body: "body"}
	out := make([]types.Message, 0, 4*n)
	round := 0
	allocs := testing.AllocsPerRun(200, func() {
		round++
		id := types.InstanceID{Sender: 1, Tag: types.Tag{Round: round, Step: types.Step1, Seq: 1}}
		send.ID, echo.ID, ready.ID = id, id, id
		out, _ = b.AppendHandle(out[:0], 1, send)
		for _, p := range peers {
			out, _ = b.AppendHandle(out[:0], p, echo)
		}
		for _, p := range peers {
			out, _ = b.AppendHandle(out[:0], p, ready)
		}
		b.PruneBelow(round)
	})
	if allocs > budget {
		t.Errorf("full instance lifecycle cost %.1f allocs, budget %d", allocs, budget)
	}
}

// TestNewAllocations pins what constructing a Broadcaster costs, apart from
// handling: the struct, the peer list copy, the dense peer index and the two
// maps. The instance window is made by the first round-tagged broadcast.
func TestNewAllocations(t *testing.T) {
	const budget = 5 // measured 5
	spec := quorum.MustNew(7, 2)
	peers := types.Processes(7)
	var b *Broadcaster
	allocs := testing.AllocsPerRun(200, func() { b = New(2, peers, spec) })
	if allocs > budget {
		t.Errorf("New cost %.1f allocs, budget %d", allocs, budget)
	}
	_ = b
}

// TestAppendHandlePayloadMatchesTypedHandlers: every payload a plain and a
// coded broadcast put on the wire — all three broadcast kinds — yields the
// same messages and deliveries through AppendHandlePayload as through its
// typed handler, on twin broadcasters; any other payload reports ok = false
// and leaves out untouched.
func TestAppendHandlePayloadMatchesTypedHandlers(t *testing.T) {
	spec, peers := quorum.MustNew(4, 1), types.Processes(4)
	tag := types.Tag{Round: 1, Step: types.Step1}
	kinds := map[string]int{}
	for _, mk := range []func(types.ProcessID, []types.ProcessID, quorum.Spec) *Broadcaster{New, NewCoded} {
		typed, generic := map[types.ProcessID]*Broadcaster{}, map[types.ProcessID]*Broadcaster{}
		for _, p := range peers {
			typed[p], generic[p] = mk(p, peers, spec), mk(p, peers, spec)
		}
		body := strings.Repeat("body", 16)
		queue := typed[1].AppendBroadcast(nil, tag, body)
		generic[1].AppendBroadcast(nil, tag, body)
		delivered := 0
		for ; len(queue) > 0; queue = queue[1:] {
			m := queue[0]
			kinds[fmt.Sprintf("%T", m.Payload)]++
			var want []types.Message
			var wantDs []Delivery
			switch p := m.Payload.(type) {
			case *types.RBCPayload:
				want, wantDs = typed[m.To].AppendHandle(nil, m.From, p)
			case *types.RBCFragPayload:
				want, wantDs = typed[m.To].AppendHandleFrag(nil, m.From, p)
			case *types.RBCSumPayload:
				want, wantDs = typed[m.To].AppendHandleSum(nil, m.From, p)
			}
			got, gotDs, ok := generic[m.To].AppendHandlePayload(nil, m.From, m.Payload)
			if !ok || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotDs, wantDs) {
				t.Fatalf("%v: AppendHandlePayload = %v, %v, %v; typed handler %v, %v", m, got, gotDs, ok, want, wantDs)
			}
			delivered += len(gotDs)
			queue = append(queue, want...)
		}
		if delivered != len(peers) {
			t.Errorf("%d deliveries, want %d", delivered, len(peers))
		}
	}
	for _, k := range []string{"*types.RBCPayload", "*types.RBCFragPayload", "*types.RBCSumPayload"} {
		if kinds[k] == 0 {
			t.Errorf("no %s was dispatched", k)
		}
	}

	b := New(1, peers, spec)
	out := make([]types.Message, 1, 4)
	for _, p := range []types.Payload{&types.CoinSharePayload{Round: 1}, &types.DecidePayload{}, &types.PlainPayload{Round: 1}} {
		got, ds, ok := b.AppendHandlePayload(out, 2, p)
		if ok || ds != nil || len(got) != 1 || &got[0] != &out[0] {
			t.Errorf("%T: AppendHandlePayload = %v, %v, %v; want out untouched and ok = false", p, got, ds, ok)
		}
	}
}

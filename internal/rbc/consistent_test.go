package rbc

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// cCluster pumps Consistent endpoints synchronously, like cluster does for
// Broadcaster.
type cCluster struct {
	spec      quorum.Spec
	correct   map[types.ProcessID]*Consistent
	queue     []types.Message
	delivered map[types.ProcessID][]Delivery
	sent      int
}

func newCCluster(t *testing.T, n, f int, correct []types.ProcessID) *cCluster {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	c := &cCluster{
		spec:      spec,
		correct:   make(map[types.ProcessID]*Consistent),
		delivered: make(map[types.ProcessID][]Delivery),
	}
	for _, p := range correct {
		c.correct[p] = NewConsistent(p, peers, spec)
	}
	return c
}

func (c *cCluster) enqueue(msgs []types.Message) {
	c.sent += len(msgs)
	c.queue = append(c.queue, msgs...)
}

func (c *cCluster) pump() {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		b, ok := c.correct[m.To]
		if !ok {
			continue
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

func TestConsistentCorrectSender(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		c := newCCluster(t, tc.n, tc.f, types.Processes(tc.n))
		tag := types.Tag{Seq: 1}
		c.enqueue(c.correct[1].Broadcast(tag, "m"))
		c.pump()
		for p, b := range c.correct {
			if len(c.delivered[p]) != 1 || c.delivered[p][0].Body != "m" {
				t.Fatalf("n=%d: %v delivered %v", tc.n, p, c.delivered[p])
			}
			if !b.Delivered(types.InstanceID{Sender: 1, Tag: tag}) {
				t.Fatalf("n=%d: %v Delivered() false", tc.n, p)
			}
		}
		// Exactly n + n² messages — one echo round cheaper than RBC.
		want := tc.n + tc.n*tc.n
		if c.sent != want {
			t.Errorf("n=%d: %d messages, want %d", tc.n, c.sent, want)
		}
	}
}

func TestConsistentNoEquivocationSplit(t *testing.T) {
	// Byzantine sender sends A to two correct processes and B to one; it
	// echoes both bodies itself. At most one body may be delivered by
	// correct processes (consistency) — and a split SEND can leave some
	// correct processes without any delivery (no totality, by design).
	n, f := 4, 1
	byz := types.ProcessID(4)
	correct := types.Processes(3)
	c := newCCluster(t, n, f, correct)
	id := types.InstanceID{Sender: byz, Tag: types.Tag{Seq: 2}}
	mk := func(to types.ProcessID, phase types.Kind, body string) types.Message {
		return types.Message{From: byz, To: to, Payload: &types.RBCPayload{Phase: phase, ID: id, Body: body}}
	}
	c.enqueue([]types.Message{
		mk(1, types.KindRBCSend, "A"),
		mk(2, types.KindRBCSend, "A"),
		mk(3, types.KindRBCSend, "B"),
	})
	for _, p := range correct {
		c.enqueue([]types.Message{
			mk(p, types.KindRBCEcho, "A"),
			mk(p, types.KindRBCEcho, "B"),
		})
	}
	c.pump()
	bodies := map[string]bool{}
	for _, ds := range c.delivered {
		for _, d := range ds {
			bodies[d.Body] = true
		}
	}
	if len(bodies) > 1 {
		t.Fatalf("consistency broken: %v", bodies)
	}
}

func TestConsistentTotalityGap(t *testing.T) {
	// The defining weakness versus reliable broadcast: a Byzantine sender
	// addresses only p1 and p2 (plus its own echo); p3 never delivers even
	// though p1 and p2 do. Reliable broadcast's READY amplification would
	// have pulled p3 along.
	n, f := 4, 1
	byz := types.ProcessID(4)
	correct := types.Processes(3)
	c := newCCluster(t, n, f, correct)
	id := types.InstanceID{Sender: byz, Tag: types.Tag{Seq: 3}}
	c.enqueue([]types.Message{
		{From: byz, To: 1, Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "m"}},
		{From: byz, To: 2, Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "m"}},
	})
	// Byzantine echo to p1 and p2 only.
	c.enqueue([]types.Message{
		{From: byz, To: 1, Payload: &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: "m"}},
		{From: byz, To: 2, Payload: &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: "m"}},
	})
	c.pump()
	if len(c.delivered[1]) != 1 || len(c.delivered[2]) != 1 {
		t.Fatalf("p1/p2 deliveries: %d/%d, want 1/1", len(c.delivered[1]), len(c.delivered[2]))
	}
	if len(c.delivered[3]) != 0 {
		t.Fatalf("p3 delivered %v without totality machinery", c.delivered[3])
	}
}

func TestConsistentIgnoresReadyAndGarbage(t *testing.T) {
	c := newCCluster(t, 4, 1, types.Processes(4)[:1])
	b := c.correct[1]
	id := types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 1}}
	if out, ds := b.Handle(2, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "m"}); out != nil || ds != nil {
		t.Error("READY must be ignored by consistent broadcast")
	}
	if out, ds := b.Handle(2, nil); out != nil || ds != nil {
		t.Error("nil payload must be inert")
	}
	// Spoofed SEND (relayed by a non-sender) is ignored.
	if out, ds := b.Handle(3, &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "m"}); out != nil || ds != nil {
		t.Error("spoofed SEND accepted")
	}
}

func TestConsistentSingleDelivery(t *testing.T) {
	n, f := 4, 1
	c := newCCluster(t, n, f, types.Processes(n)[:1])
	b := c.correct[1]
	id := types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 9}}
	var deliveries int
	for _, from := range []types.ProcessID{1, 2, 3, 4, 1, 2, 3, 4} {
		_, ds := b.Handle(from, &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: "m"})
		deliveries += len(ds)
	}
	if deliveries != 1 {
		t.Fatalf("delivered %d times, want exactly 1", deliveries)
	}
}

// TestConsistentNonPeerEchoesIgnored: echoes from senders outside the peers
// 1..n count toward no quorum, however many arrive.
func TestConsistentNonPeerEchoesIgnored(t *testing.T) {
	c := newCCluster(t, 4, 1, types.Processes(4)[:1])
	b := c.correct[1]
	id := types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 9}}
	for _, from := range []types.ProcessID{0, -1, 5, 99, 1 << 20, 2} {
		if _, ds := b.Handle(from, &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: "m"}); ds != nil {
			t.Fatalf("delivered on an echo from %v with only one peer echoing", from)
		}
	}
}

// TestConsistentEchoesCountDistinctPeersPerBody: an echo counts once per
// peer and only toward its own body. At n=4 (quorum 3) repeated echoes from
// two peers and a split between bodies deliver nothing; at n=65 (quorum 44)
// the peers on both sides of a bitset word boundary each count once.
func TestConsistentEchoesCountDistinctPeersPerBody(t *testing.T) {
	echo := func(b *Consistent, from types.ProcessID, id types.InstanceID, body string) []Delivery {
		_, ds := b.Handle(from, &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body})
		return ds
	}
	b := newCCluster(t, 4, 1, types.Processes(4)[:1]).correct[1]
	id := types.InstanceID{Sender: 2, Tag: types.Tag{Seq: 4}}
	for _, e := range []struct {
		from types.ProcessID
		body string
	}{{1, "A"}, {2, "A"}, {1, "A"}, {2, "A"}, {3, "B"}, {4, "B"}, {3, "B"}} {
		if ds := echo(b, e.from, id, e.body); ds != nil {
			t.Fatalf("delivered %v with two echoes per body", ds)
		}
	}
	if ds := echo(b, 3, id, "A"); len(ds) != 1 || ds[0].Body != "A" {
		t.Fatalf("third peer echoing A delivered %v, want A", ds)
	}

	spec := quorum.MustNew(65, 21)
	b = NewConsistent(1, types.Processes(65), spec)
	var delivered int
	for round := range 2 {
		for p := types.ProcessID(65); p > 65-types.ProcessID(spec.Echo()); p-- {
			ds := echo(b, p, id, "m")
			delivered += len(ds)
			if last := round == 0 && p == 66-types.ProcessID(spec.Echo()); (len(ds) == 1) != last {
				t.Fatalf("round %d: echo from %v delivered %v", round, p, ds)
			}
		}
	}
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
}

// TestConsistentNonPeerOpensNothing: only peers reach a Consistent endpoint.
// 1 000 SENDs from p9, each its own instance (a distinct Seq), make a fresh
// n=4 endpoint echo nothing and open no instance, where an endpoint without
// the door sends 4 000 ECHOs and keeps 1 000 instances. An ECHO from a peer
// naming a non-peer's instance opens none either.
func TestConsistentNonPeerOpensNothing(t *testing.T) {
	b := NewConsistent(1, types.Processes(4), quorum.MustNew(4, 1))
	echoes := 0
	for seq := range 1000 {
		id := types.InstanceID{Sender: 9, Tag: types.Tag{Seq: seq}}
		out, _ := b.Handle(9, &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "m"})
		echoes += len(out)
	}
	if echoes != 0 || len(b.instances) != 0 {
		t.Errorf("1000 SENDs from p9: %d ECHOs sent, %d instances; want 0 and 0", echoes, len(b.instances))
	}
	before := len(b.instances)
	id := types.InstanceID{Sender: 9, Tag: types.Tag{Seq: 1000}}
	b.Handle(2, &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: "m"})
	if opened := len(b.instances) - before; opened != 0 {
		t.Errorf("an ECHO from p2 for p9's instance opened %d instances, want 0", opened)
	}
}

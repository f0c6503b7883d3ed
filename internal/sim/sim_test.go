package sim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/types"
)

// pingNode sends one message to each peer at start and counts deliveries.
// If chatty, it replies to every delivery until budget messages are sent.
type pingNode struct {
	id      types.ProcessID
	peers   []types.ProcessID
	got     []types.Message
	chatty  bool
	budget  int
	done    bool
	spoofAs types.ProcessID // when set, Start emits a message forged as this sender
}

func (p *pingNode) ID() types.ProcessID { return p.id }

func (p *pingNode) Start() []types.Message {
	msgs := types.Broadcast(p.id, p.peers, &types.DecidePayload{V: types.One})
	if p.spoofAs != 0 {
		msgs = append(msgs, types.Message{From: p.spoofAs, To: p.peers[0], Payload: &types.DecidePayload{}})
	}
	return msgs
}

func (p *pingNode) Deliver(m types.Message) []types.Message {
	p.got = append(p.got, m)
	if p.chatty && p.budget > 0 {
		p.budget--
		return []types.Message{{From: p.id, To: m.From, Payload: m.Payload}}
	}
	return nil
}

func (p *pingNode) Done() bool { return p.done }

func newNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewRequiresScheduler(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoScheduler) {
		t.Fatalf("error = %v, want ErrNoScheduler", err)
	}
}

func TestAddRejectsDuplicates(t *testing.T) {
	n := newNet(t, Config{Scheduler: Immediate{}})
	if err := n.Add(&pingNode{id: 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(&pingNode{id: 1}); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("error = %v, want ErrDuplicateNode", err)
	}
}

func TestAllMessagesDelivered(t *testing.T) {
	schedulers := map[string]Scheduler{
		"immediate": Immediate{},
		"uniform":   UniformDelay{Min: 1, Max: 50},
		"fifo":      NewFIFODelay(1, 50),
	}
	for name, sched := range schedulers {
		t.Run(name, func(t *testing.T) {
			n := newNet(t, Config{Scheduler: sched, Seed: 7})
			ps := types.Processes(4)
			nodes := make([]*pingNode, 4)
			for i := range nodes {
				nodes[i] = &pingNode{id: ps[i], peers: ps}
				if err := n.Add(nodes[i]); err != nil {
					t.Fatal(err)
				}
			}
			stats, err := n.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Sent != 16 || stats.Delivered != 16 {
				t.Errorf("sent/delivered = %d/%d, want 16/16", stats.Sent, stats.Delivered)
			}
			for _, node := range nodes {
				if len(node.got) != 4 {
					t.Errorf("%v received %d messages, want 4", node.id, len(node.got))
				}
			}
		})
	}
}

func TestRunTwiceFails(t *testing.T) {
	n := newNet(t, Config{Scheduler: Immediate{}})
	if _, err := n.Run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(nil); err == nil {
		t.Fatal("second Run must fail")
	}
	if err := n.Add(&pingNode{id: 9}); err == nil {
		t.Fatal("Add after Run must fail")
	}
}

func TestSpoofedSenderRejected(t *testing.T) {
	rec := trace.New(0)
	n := newNet(t, Config{Scheduler: Immediate{}, Recorder: rec})
	ps := types.Processes(2)
	a := &pingNode{id: 1, peers: ps[1:], spoofAs: 2}
	b := &pingNode{id: 2, peers: nil}
	if err := n.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(b); err != nil {
		t.Fatal(err)
	}
	stats, err := n.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spoofed != 1 {
		t.Errorf("Spoofed = %d, want 1", stats.Spoofed)
	}
	if len(b.got) != 1 { // only the genuine message
		t.Errorf("b received %d messages, want 1", len(b.got))
	}
	drops := eventsOfKind(rec, trace.KindDrop)
	if len(drops) != 1 || drops[0].Note != "spoofed sender" {
		t.Errorf("drop events = %v", drops)
	}
}

// dropAll discards every message — the scheduler-drop path.
type dropAll struct{}

func (dropAll) Deliver(types.Message, Time, uint64, *rand.Rand) Time { return Drop }

func TestSizerAccounting(t *testing.T) {
	size := func(m types.Message) int { return 10 }

	t.Run("counts every sent message", func(t *testing.T) {
		n := newNet(t, Config{Scheduler: Immediate{}, Sizer: size})
		ps := types.Processes(4)
		for _, p := range ps {
			if err := n.Add(&pingNode{id: p, peers: ps}); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := n.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(stats.Sent) * 10; stats.Bytes != want || stats.Sent != 16 {
			t.Errorf("Bytes = %d (Sent %d), want %d", stats.Bytes, stats.Sent, want)
		}
	})

	t.Run("spoofed messages never hit the wire", func(t *testing.T) {
		n := newNet(t, Config{Scheduler: Immediate{}, Sizer: size})
		ps := types.Processes(2)
		if err := n.Add(&pingNode{id: 1, peers: ps[1:], spoofAs: 2}); err != nil {
			t.Fatal(err)
		}
		if err := n.Add(&pingNode{id: 2}); err != nil {
			t.Fatal(err)
		}
		stats, err := n.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Bytes != int64(stats.Sent)*10 || stats.Spoofed != 1 {
			t.Errorf("Bytes = %d with Sent = %d Spoofed = %d", stats.Bytes, stats.Sent, stats.Spoofed)
		}
	})

	t.Run("scheduler-dropped messages still count", func(t *testing.T) {
		// A dropped message was sent — it crossed the sender's NIC — so the
		// bandwidth meter charges it even though it never arrives.
		n := newNet(t, Config{Scheduler: dropAll{}, Sizer: size})
		ps := types.Processes(2)
		for _, p := range ps {
			if err := n.Add(&pingNode{id: p, peers: ps}); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := n.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Delivered != 0 || stats.Bytes != int64(stats.Sent)*10 {
			t.Errorf("Delivered = %d Bytes = %d Sent = %d", stats.Delivered, stats.Bytes, stats.Sent)
		}
	})

	t.Run("nil sizer meters nothing", func(t *testing.T) {
		n := newNet(t, Config{Scheduler: Immediate{}})
		ps := types.Processes(2)
		for _, p := range ps {
			if err := n.Add(&pingNode{id: p, peers: ps}); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := n.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Bytes != 0 {
			t.Errorf("Bytes = %d without a Sizer", stats.Bytes)
		}
	})
}

func TestBudgetExhaustion(t *testing.T) {
	// Two chatty nodes ping-pong forever; the budget must stop them.
	n := newNet(t, Config{Scheduler: Immediate{}, MaxDeliveries: 100})
	ps := types.Processes(2)
	a := &pingNode{id: 1, peers: ps, chatty: true, budget: 1 << 30}
	b := &pingNode{id: 2, peers: ps, chatty: true, budget: 1 << 30}
	if err := n.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(b); err != nil {
		t.Fatal(err)
	}
	stats, err := n.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Error("expected budget exhaustion")
	}
	if stats.Delivered != 100 {
		t.Errorf("Delivered = %d, want 100", stats.Delivered)
	}
}

func TestStopPredicate(t *testing.T) {
	n := newNet(t, Config{Scheduler: Immediate{}})
	ps := types.Processes(3)
	var count int
	nodes := make([]*pingNode, 3)
	for i := range nodes {
		nodes[i] = &pingNode{id: ps[i], peers: ps}
		if err := n.Add(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := n.Run(func() bool {
		count++
		return count >= 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2 (stopped early)", stats.Delivered)
	}
}

func TestDoneNodesReceiveNothing(t *testing.T) {
	n := newNet(t, Config{Scheduler: Immediate{}})
	ps := types.Processes(2)
	a := &pingNode{id: 1, peers: ps[1:]}
	b := &pingNode{id: 2, done: true}
	if err := n.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(b); err != nil {
		t.Fatal(err)
	}
	stats, err := n.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.got) != 0 {
		t.Errorf("done node received %d messages", len(b.got))
	}
	if stats.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", stats.Dropped)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []types.Message {
		n := newNet(t, Config{Scheduler: UniformDelay{Min: 1, Max: 100}, Seed: 42})
		ps := types.Processes(5)
		nodes := make([]*pingNode, 5)
		for i := range nodes {
			nodes[i] = &pingNode{id: ps[i], peers: ps, chatty: true, budget: 3}
			if err := n.Add(nodes[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.Run(nil); err != nil {
			t.Fatal(err)
		}
		var all []types.Message
		for _, node := range nodes {
			all = append(all, node.got...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To {
			t.Fatalf("delivery %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	// One sender, many messages to the same peer: the receiver must see them
	// in send order under FIFODelay even with large random delays.
	n := newNet(t, Config{Scheduler: NewFIFODelay(1, 1000), Seed: 3})
	recv := &pingNode{id: 2}
	sender := &burstNode{id: 1, to: 2, count: 50}
	if err := n.Add(sender); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(recv); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(recv.got) != 50 {
		t.Fatalf("received %d, want 50", len(recv.got))
	}
	for i, m := range recv.got {
		p, ok := m.Payload.(*types.PlainPayload)
		if !ok || p.Round != i {
			t.Fatalf("delivery %d out of order: %v", i, m)
		}
	}
}

// burstNode sends `count` numbered messages to one peer at start.
type burstNode struct {
	id    types.ProcessID
	to    types.ProcessID
	count int
}

func (b *burstNode) ID() types.ProcessID { return b.id }
func (b *burstNode) Start() []types.Message {
	msgs := make([]types.Message, b.count)
	for i := range msgs {
		msgs[i] = types.Message{
			From:    b.id,
			To:      b.to,
			Payload: &types.PlainPayload{Round: i, Step: types.Step1},
		}
	}
	return msgs
}
func (b *burstNode) Deliver(types.Message) []types.Message { return nil }
func (b *burstNode) Done() bool                            { return false }

func TestSchedulerRules(t *testing.T) {
	t.Run("drop links", func(t *testing.T) {
		n := newNet(t, Config{Scheduler: Compose{
			Base:  Immediate{},
			Rules: []Rule{DropLinks([2]types.ProcessID{1, 2})},
		}})
		ps := types.Processes(3)
		nodes := make([]*pingNode, 3)
		for i := range nodes {
			nodes[i] = &pingNode{id: ps[i], peers: ps}
			if err := n.Add(nodes[i]); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := n.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Dropped != 1 {
			t.Errorf("Dropped = %d, want 1", stats.Dropped)
		}
		if len(nodes[1].got) != 2 { // p2 misses p1's message
			t.Errorf("p2 received %d, want 2", len(nodes[1].got))
		}
	})
	t.Run("drop from", func(t *testing.T) {
		n := newNet(t, Config{Scheduler: Compose{
			Base:  Immediate{},
			Rules: []Rule{DropFrom(3)},
		}})
		ps := types.Processes(3)
		nodes := make([]*pingNode, 3)
		for i := range nodes {
			nodes[i] = &pingNode{id: ps[i], peers: ps}
			if err := n.Add(nodes[i]); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := n.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Dropped != 3 {
			t.Errorf("Dropped = %d, want 3", stats.Dropped)
		}
	})
	t.Run("rush from beats delay", func(t *testing.T) {
		// p3's messages are rushed; everyone else is slow. p2 must receive
		// p3's message before p1's.
		n := newNet(t, Config{
			Scheduler: Compose{
				Base:  UniformDelay{Min: 100, Max: 200},
				Rules: []Rule{RushFrom(3)},
			},
			Seed: 1,
		})
		ps := types.Processes(3)
		nodes := make([]*pingNode, 3)
		for i := range nodes {
			nodes[i] = &pingNode{id: ps[i], peers: []types.ProcessID{2}}
			if err := n.Add(nodes[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.Run(nil); err != nil {
			t.Fatal(err)
		}
		if len(nodes[1].got) != 3 {
			t.Fatalf("p2 received %d, want 3", len(nodes[1].got))
		}
		if nodes[1].got[0].From != 3 {
			t.Errorf("first delivery from %v, want p3 (rushed)", nodes[1].got[0].From)
		}
	})
	t.Run("delay links pushes delivery later", func(t *testing.T) {
		n := newNet(t, Config{
			Scheduler: Compose{
				Base:  Immediate{},
				Rules: []Rule{DelayLinks(1000, [2]types.ProcessID{1, 2})},
			},
		})
		ps := types.Processes(2)
		a := &pingNode{id: 1, peers: []types.ProcessID{2}}
		b := &pingNode{id: 2, peers: []types.ProcessID{1}}
		_ = ps
		if err := n.Add(a); err != nil {
			t.Fatal(err)
		}
		if err := n.Add(b); err != nil {
			t.Fatal(err)
		}
		stats, err := n.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.End != 1000 {
			t.Errorf("End = %d, want 1000 (delayed link dominates)", stats.End)
		}
	})
}

func TestUniformDelaySwappedBounds(t *testing.T) {
	// Max < Min must not panic; bounds are normalized.
	n := newNet(t, Config{Scheduler: UniformDelay{Min: 50, Max: 1}, Seed: 1})
	a := &pingNode{id: 1, peers: []types.ProcessID{1}}
	if err := n.Add(a); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(a.got) != 1 {
		t.Errorf("self delivery missing")
	}
}

// pastScheduler answers with times no scheduler should: five ticks before
// the send, the tick below Drop, and — so that the clock moves and "five
// ticks before" is sometimes positive — three ticks ahead.
type pastScheduler struct{}

func (pastScheduler) Deliver(_ types.Message, now Time, seq uint64, _ *rand.Rand) Time {
	switch seq % 3 {
	case 0:
		return now - 5
	case 1:
		return Drop - 1
	default:
		return now + 3
	}
}

// TestSchedulerCannotReachThePast: the event queue panics on an event before
// its clock, and send clamps every scheduler answer below now (other than
// Drop itself) to now — so no Scheduler, however wrong, can reach that panic,
// and a clamped message is delivered at the tick it was sent.
func TestSchedulerCannotReachThePast(t *testing.T) {
	rec := trace.New(0)
	n := newNet(t, Config{Scheduler: pastScheduler{}, Seed: 1, Recorder: rec})
	ps := types.Processes(4)
	for _, p := range ps {
		if err := n.Add(&pingNode{id: p, peers: ps, chatty: true, budget: 40}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := n.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 16+4*40 || stats.Delivered+stats.Dropped != stats.Sent || stats.End < 5 {
		t.Fatalf("stats %+v: want %d sent, each delivered or dropped, and a clock past 5", stats, 16+4*40)
	}
	sentAt := make(map[uint64]int64)
	last := int64(0)
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindSend:
			sentAt[e.Seq] = e.Time
		case trace.KindDeliver:
			if e.Time < last || e.Time < sentAt[e.Seq] {
				t.Fatalf("seq %d delivered at %d: sent at %d, previous delivery at %d", e.Seq, e.Time, sentAt[e.Seq], last)
			}
			if e.Seq%3 != 2 && e.Time != sentAt[e.Seq] {
				t.Fatalf("seq %d: a past answer was delivered at %d, not at its send time %d", e.Seq, e.Time, sentAt[e.Seq])
			}
			last = e.Time
		}
	}
}

// eventsOfKind returns rec's stored events of kind k, in record order.
func eventsOfKind(rec *trace.Recorder, k trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

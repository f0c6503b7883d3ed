package adversary

import (
	"testing"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/types"
	"repro/internal/wire"
)

func TestSilent(t *testing.T) {
	s := &Silent{Me: 3}
	if s.ID() != 3 {
		t.Errorf("ID = %v", s.ID())
	}
	if s.Start() != nil || s.Deliver(types.Message{}) != nil {
		t.Error("silent node produced output")
	}
	if s.Done() {
		t.Error("silent node reported done (it should linger as a non-participant)")
	}
}

func TestDecideForger(t *testing.T) {
	peers := types.Processes(4)
	d := &DecideForger{Me: 4, Peers: peers, V: types.One}
	msgs := d.Start()
	if len(msgs) != 4 {
		t.Fatalf("sent %d forged DECIDEs, want 4", len(msgs))
	}
	for _, m := range msgs {
		p, ok := m.Payload.(*types.DecidePayload)
		if !ok || p.V != types.One || m.From != 4 {
			t.Errorf("unexpected forged message %v", m)
		}
	}
	if d.Deliver(msgs[0]) != nil {
		t.Error("forger must stay quiet after start")
	}
}

func TestEquivocatorSplitsSends(t *testing.T) {
	peers := types.Processes(4)
	e := &Equivocator{Me: 4, Peers: peers}
	msgs := e.Start()
	if len(msgs) != 4 {
		t.Fatalf("start sent %d messages, want 4 conflicting SENDs", len(msgs))
	}
	values := map[types.ProcessID]types.Value{}
	for _, m := range msgs {
		p, ok := m.Payload.(*types.RBCPayload)
		if !ok || p.Phase != types.KindRBCSend {
			t.Fatalf("unexpected payload %v", m)
		}
		sm, err := wire.DecodeStep(p.Body)
		if err != nil {
			t.Fatalf("equivocator produced undecodable body: %v", err)
		}
		values[m.To] = sm.V
	}
	if values[1] == values[4] {
		t.Error("equivocator sent the same value to both halves")
	}
}

func TestEquivocatorJoinsObservedSlots(t *testing.T) {
	peers := types.Processes(4)
	e := &Equivocator{Me: 4, Peers: peers}
	e.Start()
	// p1 opens round 2 step 1: the equivocator must join with its own
	// conflicting instance plus double echo/ready of p1's instance.
	body, err := wire.EncodeStep(types.StepMessage{Round: 2, Step: types.Step1, V: types.One})
	if err != nil {
		t.Fatal(err)
	}
	in := types.Message{From: 1, To: 4, Payload: &types.RBCPayload{
		Phase: types.KindRBCSend,
		ID:    types.InstanceID{Sender: 1, Tag: types.Tag{Round: 2, Step: types.Step1}},
		Body:  body,
	}}
	out := e.Deliver(in)
	// 4 conflicting SENDs + 2 values × 2 phases × 4 peers = 20.
	if len(out) != 20 {
		t.Fatalf("deliver produced %d messages, want 20", len(out))
	}
	// Same slot again: no repeat.
	if again := e.Deliver(in); len(again) != 0 {
		t.Fatalf("equivocator repeated itself: %d messages", len(again))
	}
}

func TestLiarFlipsOwnSends(t *testing.T) {
	peers := types.Processes(4)
	spec := quorum.MustNew(4, 1)
	liar, err := NewLiar(core.Config{
		Me: 4, Peers: peers, Spec: spec,
		Coin:     coin.NewIdeal(1),
		Proposal: types.One,
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := liar.Start()
	if len(msgs) != 4 {
		t.Fatalf("start sent %d messages, want 4", len(msgs))
	}
	for _, m := range msgs {
		p, ok := m.Payload.(*types.RBCPayload)
		if !ok {
			t.Fatalf("unexpected payload %v", m)
		}
		sm, err := wire.DecodeStep(p.Body)
		if err != nil {
			t.Fatal(err)
		}
		if sm.V != types.Zero { // proposal 1 flipped to 0
			t.Errorf("liar sent %v, want flipped 0", sm.V)
		}
	}
	if liar.Done() {
		t.Error("liar must never report done")
	}
	if liar.ID() != 4 {
		t.Errorf("ID = %v", liar.ID())
	}
}

// TestLiarFlipsEachBroadcastOnce: the n copies of one SEND share one
// payload, and the liar hands all n recipients one flipped copy instead of
// decoding and re-encoding the body once per recipient.
func TestLiarFlipsEachBroadcastOnce(t *testing.T) {
	peers := types.Processes(7)
	liar, err := NewLiar(core.Config{
		Me: 7, Peers: peers, Spec: quorum.MustNew(7, 2),
		Coin:     coin.NewIdeal(1),
		Proposal: types.One,
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := liar.Start()
	if len(msgs) != len(peers) {
		t.Fatalf("start sent %d messages, want %d", len(msgs), len(peers))
	}
	first, ok := msgs[0].Payload.(*types.RBCPayload)
	if !ok {
		t.Fatalf("unexpected payload %v", msgs[0])
	}
	if sm, err := wire.DecodeStep(first.Body); err != nil || sm.V != types.Zero {
		t.Fatalf("liar sent %v (%v), want the flipped value 0", sm, err)
	}
	for i, m := range msgs {
		if m.To != peers[i] {
			t.Errorf("message %d goes to %v, want %v", i, m.To, peers[i])
		}
		if p, _ := m.Payload.(*types.RBCPayload); p != first {
			t.Errorf("message %d to %v carries its own flipped payload %p, want the shared %p", i, m.To, p, first)
		}
	}
}

func TestSplitBrainIsolatesWorlds(t *testing.T) {
	peers := types.Processes(4)
	spec := quorum.MustNew(4, 1)
	sb, err := NewSplitBrain(3, peers, spec,
		[]types.ProcessID{1}, []types.ProcessID{2}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sb.ID() != 3 {
		t.Errorf("ID = %v", sb.ID())
	}
	msgs := sb.Start()
	for _, m := range msgs {
		p, ok := m.Payload.(*types.RBCPayload)
		if !ok {
			continue
		}
		sm, err := wire.DecodeStep(p.Body)
		if err != nil {
			t.Fatal(err)
		}
		switch m.To {
		case 1: // world A: value 0
			if sm.V != types.Zero {
				t.Errorf("world A leak: %v to p1", sm.V)
			}
		case 2: // world B: value 1
			if sm.V != types.One {
				t.Errorf("world B leak: %v to p2", sm.V)
			}
		case 3, 4: // fellow Byzantine: receives both worlds
		default:
			t.Errorf("unexpected destination %v", m.To)
		}
	}
	if sb.Done() {
		t.Error("split-brain must never report done")
	}
}

func TestSplitBrainRoutesByWorld(t *testing.T) {
	peers := types.Processes(4)
	spec := quorum.MustNew(4, 1)
	sb, err := NewSplitBrain(3, peers, spec,
		[]types.ProcessID{1}, []types.ProcessID{2}, 42)
	if err != nil {
		t.Fatal(err)
	}
	sb.Start()
	// A message from p1 (group A) must only ever produce group-A or
	// Byzantine-destined output.
	body, err := wire.EncodeStep(types.StepMessage{Round: 1, Step: types.Step1, V: types.Zero})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.Deliver(types.Message{From: 1, To: 3, Payload: &types.RBCPayload{
		Phase: types.KindRBCSend,
		ID:    types.InstanceID{Sender: 1, Tag: types.Tag{Round: 1, Step: types.Step1}},
		Body:  body,
	}})
	for _, m := range out {
		if m.To == 2 {
			t.Errorf("world A reaction leaked to p2: %v", m)
		}
	}
}

func TestPlainEquivocator(t *testing.T) {
	peers := types.Processes(6)
	e := NewPlainEquivocator(6, peers)
	msgs := e.Start()
	if len(msgs) != 6 {
		t.Fatalf("start sent %d, want 6", len(msgs))
	}
	seen := map[types.Value]int{}
	for _, m := range msgs {
		p, ok := m.Payload.(*types.PlainPayload)
		if !ok || p.Round != 1 || p.Step != types.Step1 {
			t.Fatalf("unexpected payload %v", m)
		}
		seen[p.V]++
	}
	if seen[0] != 3 || seen[1] != 3 {
		t.Errorf("split = %v, want 3/3", seen)
	}
	// Phase 2 equivocation carries conflicting D proposals.
	out := e.Deliver(types.Message{From: 1, To: 6, Payload: &types.PlainPayload{Round: 1, Step: types.Step2, V: 1, D: true}})
	if len(out) != 6 {
		t.Fatalf("phase-2 equivocation sent %d, want 6", len(out))
	}
	for _, m := range out {
		p := m.Payload.(*types.PlainPayload)
		if !p.D {
			t.Error("phase-2 equivocation must carry D proposals")
		}
	}
	// Repeat and garbage are inert.
	if len(e.Deliver(types.Message{From: 2, To: 6, Payload: &types.PlainPayload{Round: 1, Step: types.Step2, V: 0}})) != 0 {
		t.Error("slot repeated")
	}
	if len(e.Deliver(types.Message{From: 2, To: 6, Payload: &types.DecidePayload{}})) != 0 {
		t.Error("non-plain payload triggered output")
	}
	if e.Done() || e.ID() != 6 {
		t.Error("identity accessors wrong")
	}
}

func TestAccessorsAndRouting(t *testing.T) {
	peers := types.Processes(4)
	spec := quorum.MustNew(4, 1)

	t.Run("forger identity", func(t *testing.T) {
		d := &DecideForger{Me: 2, Peers: peers, V: types.Zero}
		if d.ID() != 2 || d.Done() {
			t.Error("forger accessors wrong")
		}
	})
	t.Run("equivocator identity", func(t *testing.T) {
		e := &Equivocator{Me: 4, Peers: peers}
		e.Start()
		if e.ID() != 4 || e.Done() {
			t.Error("equivocator accessors wrong")
		}
		// Non-RBC payloads are inert.
		if out := e.Deliver(types.Message{From: 1, To: 4, Payload: &types.DecidePayload{}}); out != nil {
			t.Error("equivocator reacted to non-RBC payload")
		}
	})
	t.Run("liar deliver path", func(t *testing.T) {
		liar, err := NewLiar(core.Config{
			Me: 4, Peers: peers, Spec: spec,
			Coin: coin.NewIdeal(1), Proposal: types.Zero,
		})
		if err != nil {
			t.Fatal(err)
		}
		liar.Start()
		// Deliver a DECIDE: forwarded to the inner node, output corrupted
		// (no SENDs in it, so unchanged).
		out := liar.Deliver(types.Message{From: 1, To: 4, Payload: &types.DecidePayload{V: types.One}})
		if out != nil {
			t.Errorf("single DECIDE produced output: %v", out)
		}
	})
	t.Run("liar config error", func(t *testing.T) {
		if _, err := NewLiar(core.Config{Me: 4, Peers: peers, Spec: spec}); err == nil {
			t.Error("NewLiar accepted a config without a coin")
		}
	})
	t.Run("split-brain config error", func(t *testing.T) {
		_, err := NewSplitBrain(9, peers, spec, peers[:1], peers[1:2], 1)
		if err == nil {
			t.Error("NewSplitBrain accepted a me outside peers")
		}
	})
}

func TestSplitBrainColluderRouting(t *testing.T) {
	peers := types.Processes(4)
	spec := quorum.MustNew(4, 1)
	sb, err := NewSplitBrain(3, peers, spec,
		[]types.ProcessID{1}, []types.ProcessID{2}, 42)
	if err != nil {
		t.Fatal(err)
	}
	sb.Start()

	// A colluder's (p4) world-1 RBC message must only trigger world-B (and
	// Byzantine) output.
	body, err := wire.EncodeStep(types.StepMessage{Round: 1, Step: types.Step1, V: types.One})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.Deliver(types.Message{From: 4, To: 3, Payload: &types.RBCPayload{
		Phase: types.KindRBCSend,
		ID:    types.InstanceID{Sender: 4, Tag: types.Tag{Round: 1, Step: types.Step1}},
		Body:  body,
	}})
	for _, m := range out {
		if m.To == 1 {
			t.Errorf("world-1 colluder traffic leaked to group A: %v", m)
		}
	}

	// A colluder's DECIDE(0) routes to world A only.
	out = sb.Deliver(types.Message{From: 4, To: 3, Payload: &types.DecidePayload{V: types.Zero}})
	for _, m := range out {
		if m.To == 2 {
			t.Errorf("world-0 DECIDE leaked to group B: %v", m)
		}
	}

	// A valueless colluder payload (coin share) goes to both worlds without
	// leaking across.
	out = sb.Deliver(types.Message{From: 4, To: 3, Payload: &types.CoinSharePayload{Round: 1}})
	_ = out // both personalities may ignore it; just exercising the path
}

func TestCrashAfter(t *testing.T) {
	peers := types.Processes(4)
	spec := quorum.MustNew(4, 1)
	c, err := NewCrashAfter(core.Config{
		Me: 4, Peers: peers, Spec: spec,
		Coin: coin.NewIdeal(1), Proposal: types.One,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != 4 || c.Done() || c.dead {
		t.Fatal("fresh crash-after accessors wrong")
	}
	if msgs := c.Start(); len(msgs) == 0 {
		t.Fatal("crash-after must participate before the crash")
	}
	m := types.Message{From: 1, To: 4, Payload: &types.DecidePayload{V: types.One}}
	c.Deliver(m) // budget 2 -> 1
	if c.dead {
		t.Fatal("crashed early")
	}
	c.Deliver(m) // budget 1 -> 0: crash (duplicate DECIDE is inert input, that's fine)
	if !c.dead {
		t.Fatal("did not crash at budget exhaustion")
	}
	if out := c.Deliver(m); out != nil {
		t.Fatal("crashed node produced output")
	}
	if c.Done() {
		t.Fatal("crashed is not done")
	}

	t.Run("zero budget crashes at start", func(t *testing.T) {
		c2, err := NewCrashAfter(core.Config{
			Me: 4, Peers: peers, Spec: spec,
			Coin: coin.NewIdeal(1), Proposal: types.One,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if msgs := c2.Start(); msgs != nil {
			t.Fatal("zero-budget node sent messages")
		}
		if !c2.dead {
			t.Fatal("zero-budget node did not crash")
		}
	})
	t.Run("config error", func(t *testing.T) {
		if _, err := NewCrashAfter(core.Config{Me: 4, Peers: peers, Spec: spec}, 5); err == nil {
			t.Fatal("NewCrashAfter accepted a coinless config")
		}
	})
}

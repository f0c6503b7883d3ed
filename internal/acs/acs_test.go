package acs

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// buildACS wires n ACS nodes (the last `silentByz` ones absent) into a
// simulated network and runs to completion.
func buildACS(t *testing.T, n, f, silentByz int, ck string, seed int64) []*Node {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)

	var newCoin func(p types.ProcessID) func(int) coin.Coin
	switch ck {
	case "local":
		newCoin = func(p types.ProcessID) func(int) coin.Coin {
			return func(inst int) coin.Coin {
				return coin.NewLocal(seed + int64(p)*1000 + int64(inst))
			}
		}
	case "common":
		dealers := make([]*coin.Dealer, n+1)
		for i := 1; i <= n; i++ {
			dealers[i] = coin.NewDealer(spec, seed+int64(i)*77)
		}
		newCoin = func(p types.ProcessID) func(int) coin.Coin {
			return func(inst int) coin.Coin {
				return coin.NewCommon(p, peers, dealers[inst])
			}
		}
	default:
		t.Fatalf("unknown coin kind %q", ck)
	}

	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 0, n-silentByz)
	for i, p := range peers[:n-silentByz] {
		nd, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: newCoin(p),
			Input:   fmt.Sprintf("input-of-%v-#%d", p, i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		if err := net.Add(nd); err != nil {
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
	return nodes
}

func TestACSAllCorrectAgreeOnSubset(t *testing.T) {
	for _, ck := range []string{"local", "common"} {
		t.Run(ck, func(t *testing.T) {
			nodes := buildACS(t, 4, 1, 0, ck, 3)
			first, ok := nodes[0].Output()
			if !ok {
				t.Fatal("no output")
			}
			if len(first) < 3 { // at least n−f inputs make it in
				t.Fatalf("subset too small: %d < n-f = 3", len(first))
			}
			for _, nd := range nodes[1:] {
				got, ok := nd.Output()
				if !ok {
					t.Fatalf("%v has no output", nd.ID())
				}
				if !reflect.DeepEqual(got, first) {
					t.Fatalf("subset mismatch:\n%v\nvs\n%v", got, first)
				}
			}
			// Every included value really is the proposer's input.
			for _, p := range first {
				want := fmt.Sprintf("input-of-%v-#%d", p.Proposer, int(p.Proposer)-1)
				if p.Value != want {
					t.Errorf("proposer %v value %q, want %q", p.Proposer, p.Value, want)
				}
			}
		})
	}
}

func TestACSWithSilentByzantine(t *testing.T) {
	// f silent processes: the subset still contains ≥ n−f inputs, all from
	// live processes, and all correct nodes agree.
	nodes := buildACS(t, 7, 2, 2, "common", 11)
	first, _ := nodes[0].Output()
	if len(first) < 5 {
		t.Fatalf("subset too small with silent faults: %d", len(first))
	}
	for _, p := range first {
		if p.Proposer > 5 {
			t.Errorf("silent process %v made it into the subset with value %q", p.Proposer, p.Value)
		}
	}
	for _, nd := range nodes[1:] {
		got, _ := nd.Output()
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("subset mismatch at %v", nd.ID())
		}
	}
}

func TestACSManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for seed := int64(0); seed < 10; seed++ {
		nodes := buildACS(t, 4, 1, 1, "common", seed)
		first, _ := nodes[0].Output()
		for _, nd := range nodes[1:] {
			got, _ := nd.Output()
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("seed %d: subset mismatch", seed)
			}
		}
	}
}

func TestACSConfigValidation(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	factory := func(int) coin.Coin { return coin.NewIdeal(1) }
	good := Config{Me: 1, Peers: peers, Spec: spec, NewCoin: factory, Input: "x"}

	tests := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"missing factory", func(c *Config) { c.NewCoin = nil }, ErrNoCoinFactory},
		{"wrong peers", func(c *Config) { c.Peers = peers[:2] }, quorum.ErrBadPeers},
		{"me absent", func(c *Config) { c.Me = 9 }, quorum.ErrBadPeers},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestACSNodeBasics(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	nd, err := New(Config{
		Me: 2, Peers: peers, Spec: spec,
		NewCoin: func(int) coin.Coin { return coin.NewIdeal(1) },
		Input:   "hello",
	})
	if err != nil {
		t.Fatal(err)
	}
	if nd.ID() != 2 {
		t.Errorf("ID = %v", nd.ID())
	}
	if nd.Done() {
		t.Error("ACS nodes must never report done")
	}
	if _, ok := nd.Output(); ok {
		t.Error("output available before running")
	}
	msgs := nd.Start()
	if len(msgs) != 4 {
		t.Fatalf("start sent %d messages, want 4 (input dissemination)", len(msgs))
	}
	p, ok := msgs[0].Payload.(*types.RBCPayload)
	if !ok || p.ID.Tag.Seq != valueNS+2 || p.Body != "hello" {
		t.Fatalf("unexpected dissemination payload %v", msgs[0].Payload)
	}
	// Garbage in, nothing out.
	if out := nd.Deliver(types.Message{From: 1, To: 2, Payload: &types.PlainPayload{Round: 1, Step: types.Step1}}); len(out) != 0 {
		t.Errorf("plain payload produced output: %v", out)
	}
}

// TestACSDropsNonPeerTraffic: traffic from senders outside the peer set
// is dropped at the door. None of 1 000 such messages for an instance that
// has not opened is buffered, and none is echoed, while one peer message
// for that instance waits for it.
func TestACSDropsNonPeerTraffic(t *testing.T) {
	nd, err := New(Config{
		Me: 1, Peers: types.Processes(4), Spec: quorum.MustNew(4, 1),
		NewCoin: func(int) coin.Coin { return coin.NewIdeal(1) },
		Input:   "x",
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	outsiders := []types.ProcessID{0, 5, 99, -1}
	for k := 0; k < 1000; k++ {
		from := outsiders[k%len(outsiders)]
		step := types.InstanceID{Sender: from, Tag: types.Tag{Round: 1, Step: types.Step1, Seq: 2}}
		payloads := []types.Payload{
			&types.RBCPayload{Phase: types.KindRBCSend, ID: step, Body: "step"},
			&types.RBCPayload{Phase: types.KindRBCReady, ID: step, Body: "step"},
			&types.DecidePayload{V: types.One, Instance: 2},
			&types.RBCPayload{Phase: types.KindRBCSend, ID: types.InstanceID{Sender: from, Tag: types.Tag{Seq: valueNS + 2}}, Body: "input"},
		}
		m := types.Message{From: from, To: 1, Payload: payloads[k%len(payloads)]}
		if out := nd.Deliver(m); len(out) != 0 {
			t.Fatalf("%v answered with %v", m, out)
		}
	}
	if got := nd.Buffered(); got != 0 {
		t.Fatalf("%d non-peer messages buffered, want 0", got)
	}
	nd.Deliver(types.Message{From: 2, To: 1, Payload: &types.DecidePayload{V: types.One, Instance: 2}})
	if got := nd.Buffered(); got != 1 {
		t.Errorf("a peer's message for an unopened instance: %d buffered, want 1", got)
	}
}

// BenchmarkACSDelivery measures the full per-delivery cost of the ACS
// stack on the simulator: the value-dissemination RBC plane, up to n
// multiplexed binary consensus instances, and the decision harvest, all
// through recycled output buffers. One agreement quiesces after a bounded
// number of deliveries, so fresh networks are chained until exactly b.N
// deliveries ran; per-agreement setup amortizes across its hundreds of
// thousands of deliveries. Run with -benchmem: expect 0 allocs/op.
func BenchmarkACSDelivery(b *testing.B) {
	const n, f = 16, 5
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	b.ReportAllocs()
	b.ResetTimer()
	remaining := b.N
	for seed := int64(1); remaining > 0; seed++ {
		net, err := sim.New(sim.Config{
			Scheduler:     sim.UniformDelay{Min: 1, Max: 20},
			Seed:          seed,
			MaxDeliveries: remaining,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range peers {
			p := p
			nd, err := New(Config{
				Me: p, Peers: peers, Spec: spec,
				NewCoin: func(inst int) coin.Coin {
					return coin.NewLocal(seed + int64(p)*1000 + int64(inst))
				},
				Input: "batch",
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := net.Add(nd); err != nil {
				b.Fatal(err)
			}
		}
		stats, err := net.Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Delivered == 0 {
			b.Fatal("agreement made no progress")
		}
		remaining -= stats.Delivered
	}
}

// TestACSSteadyStateDeliveryAllocations pins the strict per-delivery hot
// path of a warm ACS node at exactly zero allocations: sub-threshold and
// duplicate echo counting on the dissemination plane — the dominant
// delivery of any big-n agreement — must produce no garbage.
func TestACSSteadyStateDeliveryAllocations(t *testing.T) {
	nodes := buildACS(t, 4, 1, 0, "local", 8)
	nd := nodes[0]
	echo := types.Message{From: 2, To: nd.ID(), Payload: &types.RBCPayload{
		Phase: types.KindRBCEcho,
		ID:    types.InstanceID{Sender: 1, Tag: types.Tag{Seq: valueNS + 1}},
		Body:  "replayed-body",
	}}
	// First delivery may create the body's tally; every later one is the
	// steady-state bit-test path.
	nd.Recycle(nd.Deliver(echo))
	allocs := testing.AllocsPerRun(200, func() {
		nd.Recycle(nd.Deliver(echo))
	})
	if allocs != 0 {
		t.Errorf("steady-state ACS delivery cost %.1f allocs/op, want 0", allocs)
	}
}

func TestACSOutputIsCopy(t *testing.T) {
	nodes := buildACS(t, 4, 1, 0, "local", 8)
	a, _ := nodes[0].Output()
	if len(a) == 0 {
		t.Fatal("empty output")
	}
	a[0].Value = "tampered"
	b, _ := nodes[0].Output()
	if b[0].Value == "tampered" {
		t.Error("Output must return a copy")
	}
}

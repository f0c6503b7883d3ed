package baseline

import (
	"errors"
	"testing"

	"repro/internal/check"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

func runBenOr(t *testing.T, n, f int, proposals []types.Value, seed int64) []*Node {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, n)
	for i, p := range peers {
		nodes[i], err = New(core.Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:     coin.NewLocal(seed + int64(p)*31),
			Proposal: proposals[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Add(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func() bool {
		for _, nd := range nodes {
			if !nd.Done() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return nodes
}

func observe(nodes []*Node) check.ConsensusObservation {
	obs := check.ConsensusObservation{
		Proposals: map[types.ProcessID]types.Value{},
		Decisions: map[types.ProcessID][]types.Value{},
		Quiesced:  true,
	}
	for _, nd := range nodes {
		obs.Correct = append(obs.Correct, nd.ID())
		obs.Proposals[nd.ID()] = nd.Proposal()
		if v, ok := nd.Decided(); ok {
			obs.Decisions[nd.ID()] = []types.Value{v}
		}
	}
	return obs
}

func TestBenOrUnanimousDecidesFast(t *testing.T) {
	for _, v := range []types.Value{types.Zero, types.One} {
		proposals := make([]types.Value, 6)
		for i := range proposals {
			proposals[i] = v
		}
		nodes := runBenOr(t, 6, 1, proposals, 3)
		for _, nd := range nodes {
			got, ok := nd.Decided()
			if !ok || got != v {
				t.Fatalf("%v decided (%v, %v), want %v", nd.ID(), got, ok, v)
			}
			if nd.DecidedRound() != 1 {
				t.Errorf("%v decided in round %d, want 1", nd.ID(), nd.DecidedRound())
			}
		}
		if vs := check.Consensus(observe(nodes)); len(vs) != 0 {
			t.Fatalf("violations: %v", vs)
		}
	}
}

func TestBenOrSplitEventuallyAgrees(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		proposals := []types.Value{0, 1, 0, 1, 0, 1}
		nodes := runBenOr(t, 6, 1, proposals, seed)
		if vs := check.Consensus(observe(nodes)); len(vs) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, vs)
		}
	}
}

func TestBenOrStats(t *testing.T) {
	nodes := runBenOr(t, 6, 1, []types.Value{1, 1, 1, 1, 1, 1}, 1)
	for _, nd := range nodes {
		if nd.Round() < 1 {
			t.Errorf("%v Round = %d", nd.ID(), nd.Round())
		}
	}
}

func TestBenOrConfigValidation(t *testing.T) {
	spec := quorum.MustNew(6, 1)
	peers := types.Processes(6)
	good := core.Config{Me: 1, Peers: peers, Spec: spec, Coin: coin.NewIdeal(1), Proposal: types.One}

	tests := []struct {
		name   string
		mutate func(*core.Config)
		want   error
	}{
		{"missing coin", func(c *core.Config) { c.Coin = nil }, core.ErrNoCoin},
		{"wrong peer count", func(c *core.Config) { c.Peers = peers[:3] }, quorum.ErrBadPeers},
		{"me not in peers", func(c *core.Config) { c.Me = 9 }, quorum.ErrBadPeers},
		{"validation ablation", func(c *core.Config) { c.DisableValidation = true }, errUnsupported},
		{"instance tag", func(c *core.Config) { c.Instance = 2 }, errUnsupported},
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
	t.Run("bad proposal", func(t *testing.T) {
		cfg := good
		cfg.Proposal = 3
		if _, err := New(cfg); err == nil {
			t.Error("invalid proposal accepted")
		}
	})
}

func TestBenOrIgnoresMalformedPlain(t *testing.T) {
	spec := quorum.MustNew(6, 1)
	peers := types.Processes(6)
	nd, err := New(core.Config{Me: 1, Peers: peers, Spec: spec, Coin: coin.NewIdeal(1), Proposal: types.One})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	bad := []*types.PlainPayload{
		{Round: 0, Step: types.Step1, V: 1},          // round 0
		{Round: 1, Step: types.Step3, V: 1},          // Ben-Or has two phases
		{Round: 1, Step: types.Step1, V: 5},          // invalid value
		{Round: 1, Step: types.Step1, V: 0, Q: true}, // ? only in phase 2
		{Round: 1, Step: types.Step1, V: 0, D: true}, // D only in phase 2
	}
	for _, p := range bad {
		nd.Deliver(types.Message{From: 2, To: 1, Payload: p})
	}
	if st := nd.got[slot{round: 1, phase: types.Step1}]; st != nil && len(st.msgs) != 0 {
		t.Error("malformed plain payloads were recorded")
	}
}

func TestBenOrDuplicateSenderCountsOnce(t *testing.T) {
	spec := quorum.MustNew(6, 1)
	peers := types.Processes(6)
	nd, err := New(core.Config{Me: 1, Peers: peers, Spec: spec, Coin: coin.NewIdeal(1), Proposal: types.One})
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	for i := 0; i < 10; i++ {
		nd.Deliver(types.Message{From: 2, To: 1, Payload: &types.PlainPayload{Round: 1, Step: types.Step1, V: 1}})
	}
	got := 0
	if st := nd.got[slot{round: 1, phase: types.Step1}]; st != nil {
		got = len(st.msgs)
	}
	if got != 1 {
		t.Errorf("recorded %d messages from one sender, want 1", got)
	}
}

func TestBenOrHaltedIgnoresTraffic(t *testing.T) {
	nodes := runBenOr(t, 6, 1, []types.Value{1, 1, 1, 1, 1, 1}, 2)
	nd := nodes[0]
	if !nd.Done() {
		t.Fatal("node not halted")
	}
	if out := nd.Deliver(types.Message{From: 2, To: 1, Payload: &types.PlainPayload{Round: 9, Step: types.Step1, V: 0}}); out != nil {
		t.Error("halted node produced output")
	}
}

// BenchmarkBenOrDelivery measures the full per-delivery cost of the Ben-Or
// baseline on the simulator — the counterpart of core's zero-allocation
// treatment (recycled output buffers, bitset sender dedup, append-style
// fan-out). Run with -benchmem: the expected report is 0 allocs/op. The run
// never halts (the decide gadget is disabled), so every one of the b.N
// deliveries exercises the steady-state path.
func BenchmarkBenOrDelivery(b *testing.B) {
	const n, f = 16, 3 // n > 5f
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
		nd, err := New(core.Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:                coin.NewLocal(int64(p) * 1000),
			Proposal:            types.Value(i % 2),
			DisableDecideGadget: true,
			// Far beyond any b.N: the default 1<<16 rounds would quiesce
			// the system at ~33M deliveries and fail the count assertion.
			MaxRounds: 1 << 30,
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

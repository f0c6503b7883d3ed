package core

import (
	"errors"
	"testing"

	"repro/internal/check"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// coinKind selects the randomization source for a test cluster.
type coinKind int

const (
	coinLocal coinKind = iota
	coinCommon
	coinIdeal
)

// cluster bundles a simulated all-correct consensus run.
type cluster struct {
	nodes []*Node
	stats sim.Stats
}

// runCluster runs n correct nodes (f is only the assumption) to quiescence.
func runCluster(t *testing.T, n, f int, proposals []types.Value, ck coinKind, seed int64, opts ...func(*Config)) cluster {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var dealer *coin.Dealer
	if ck == coinCommon {
		dealer = coin.NewDealer(spec, seed+1)
	}
	nodes := make([]*Node, n)
	for i, p := range peers {
		var c coin.Coin
		switch ck {
		case coinLocal:
			c = coin.NewLocal(seed + int64(p)*1000)
		case coinCommon:
			c = coin.NewCommon(p, peers, dealer)
		case coinIdeal:
			c = coin.NewIdeal(seed)
		}
		cfg := Config{Me: p, Peers: peers, Spec: spec, Coin: c, Proposal: proposals[i]}
		for _, o := range opts {
			o(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := net.Run(func() bool {
		for _, nd := range nodes {
			if !nd.Done() {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster{nodes: nodes, stats: stats}
}

// observe builds the checker observation for an all-correct cluster.
func observe(c cluster, quiesced bool) check.ConsensusObservation {
	obs := check.ConsensusObservation{
		Proposals: map[types.ProcessID]types.Value{},
		Decisions: map[types.ProcessID][]types.Value{},
		Quiesced:  quiesced,
	}
	for _, nd := range c.nodes {
		obs.Correct = append(obs.Correct, nd.ID())
		obs.Proposals[nd.ID()] = nd.Proposal()
		if v, ok := nd.Decided(); ok {
			obs.Decisions[nd.ID()] = []types.Value{v}
		}
	}
	return obs
}

func TestUnanimousDecidesProposal(t *testing.T) {
	for _, v := range []types.Value{types.Zero, types.One} {
		proposals := []types.Value{v, v, v, v}
		c := runCluster(t, 4, 1, proposals, coinLocal, 7)
		for _, nd := range c.nodes {
			got, ok := nd.Decided()
			if !ok {
				t.Fatalf("%v undecided", nd.ID())
			}
			if got != v {
				t.Fatalf("%v decided %v, want %v (strong validity)", nd.ID(), got, v)
			}
			if !nd.Done() {
				t.Fatalf("%v decided but not halted", nd.ID())
			}
			if nd.DecidedRound() != 1 {
				t.Errorf("%v decided in round %d, want 1 (unanimous input)", nd.ID(), nd.DecidedRound())
			}
		}
		if vs := check.Consensus(observe(c, true)); len(vs) != 0 {
			t.Fatalf("violations: %v", vs)
		}
	}
}

func TestSplitProposalsEventuallyAgree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		proposals := []types.Value{0, 1, 0, 1}
		c := runCluster(t, 4, 1, proposals, coinLocal, seed)
		if vs := check.Consensus(observe(c, true)); len(vs) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, vs)
		}
	}
}

func TestCommonCoinCluster(t *testing.T) {
	sizes := []struct{ n, f int }{{4, 1}, {7, 2}}
	for _, sz := range sizes {
		for seed := int64(0); seed < 5; seed++ {
			proposals := make([]types.Value, sz.n)
			for i := range proposals {
				proposals[i] = types.Value(i % 2)
			}
			c := runCluster(t, sz.n, sz.f, proposals, coinCommon, seed)
			if vs := check.Consensus(observe(c, true)); len(vs) != 0 {
				t.Fatalf("n=%d seed %d: violations: %v", sz.n, seed, vs)
			}
		}
	}
}

func TestDecideGadgetDisabledRunsForever(t *testing.T) {
	// Without the gadget nodes decide but never halt; bound the run with a
	// small delivery budget and confirm decisions still agree.
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 5}, Seed: 3, MaxDeliveries: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 4)
	for i, p := range peers {
		node, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:                coin.NewIdeal(9),
			Proposal:            types.One,
			DisableDecideGadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	allDecided := func() bool {
		for _, nd := range nodes {
			if _, ok := nd.Decided(); !ok {
				return false
			}
		}
		return true
	}
	if _, err := net.Run(allDecided); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		v, ok := nd.Decided()
		if !ok || v != types.One {
			t.Fatalf("%v: decided=%v v=%v, want 1", nd.ID(), ok, v)
		}
		if nd.Done() {
			t.Fatalf("%v halted despite disabled gadget", nd.ID())
		}
	}
}

func TestSilentByzantineTolerated(t *testing.T) {
	// f processes are absent entirely (crashed at start — the simplest
	// Byzantine behaviour). The remaining n−f must still decide.
	n, f := 7, 2
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	correct := peers[:n-f]
	for seed := int64(0); seed < 5; seed++ {
		net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		dealer := coin.NewDealer(spec, seed)
		nodes := make([]*Node, 0, len(correct))
		for i, p := range correct {
			node, err := New(Config{
				Me: p, Peers: peers, Spec: spec,
				Coin:     coin.NewCommon(p, peers, dealer),
				Proposal: types.Value(i % 2),
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, node)
			if err := net.Add(node); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := net.Run(nil); err != nil {
			t.Fatal(err)
		}
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
		if vs := check.Consensus(obs); len(vs) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, vs)
		}
	}
}

func TestManySeedsNoViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	for seed := int64(0); seed < 30; seed++ {
		proposals := []types.Value{
			types.Value(seed & 1), types.Value((seed >> 1) & 1),
			types.Value((seed >> 2) & 1), types.Value((seed >> 3) & 1),
			types.Value((seed >> 4) & 1), types.Value((seed >> 5) & 1),
			types.Value((seed >> 6) & 1),
		}
		c := runCluster(t, 7, 2, proposals, coinCommon, seed)
		if vs := check.Consensus(observe(c, true)); len(vs) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, vs)
		}
		if c.stats.Exhausted {
			t.Fatalf("seed %d: delivery budget exhausted", seed)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	c := runCluster(t, 4, 1, []types.Value{1, 1, 1, 1}, coinIdeal, 1)
	for _, nd := range c.nodes {
		st := nd.Stats()
		if st.RoundsStarted < 1 {
			t.Errorf("%v RoundsStarted = %d", nd.ID(), st.RoundsStarted)
		}
		if st.StepsDone < 3 {
			t.Errorf("%v StepsDone = %d, want ≥ 3", nd.ID(), st.StepsDone)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	good := Config{Me: 1, Peers: peers, Spec: spec, Coin: coin.NewIdeal(1), Proposal: types.One}

	tests := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"missing coin", func(c *Config) { c.Coin = nil }, ErrNoCoin},
		{"wrong peer count", func(c *Config) { c.Peers = peers[:3] }, quorum.ErrBadPeers},
		{"me not in peers", func(c *Config) { c.Me = 9 }, quorum.ErrBadPeers},
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
		cfg.Proposal = 7
		if _, err := New(cfg); err == nil {
			t.Error("invalid proposal accepted")
		}
	})
}

func TestHaltedNodeIgnoresTraffic(t *testing.T) {
	c := runCluster(t, 4, 1, []types.Value{1, 1, 1, 1}, coinIdeal, 1)
	nd := c.nodes[0]
	if !nd.Done() {
		t.Fatal("node not halted after full run")
	}
	if out := nd.Deliver(types.Message{From: 2, To: 1, Payload: &types.DecidePayload{V: types.Zero}}); out != nil {
		t.Error("halted node produced output")
	}
}

func TestMaxRoundsStalls(t *testing.T) {
	// MaxRounds = 1 and a coin that disagrees with unanimity cannot happen;
	// force many rounds with split inputs and verify the node stalls rather
	// than running unbounded.
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 5}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 4)
	for i, p := range peers {
		node, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:                coin.NewLocal(int64(p)), // independent coins: likely multi-round
			Proposal:            types.Value(i % 2),
			MaxRounds:           1, // stall after round 1
			DisableDecideGadget: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := net.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exhausted {
		t.Fatal("run did not quiesce")
	}
	for _, nd := range nodes {
		if nd.Round() > 1 {
			t.Errorf("%v advanced to round %d despite MaxRounds=1", nd.ID(), nd.Round())
		}
	}
}

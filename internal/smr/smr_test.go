package smr

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// kvMachine is a tiny deterministic state machine: "set k v" commands.
type kvMachine struct {
	applied []string
	state   map[string]string
}

func newKV() *kvMachine { return &kvMachine{state: make(map[string]string)} }

func (m *kvMachine) Apply(cmd string) error {
	m.applied = append(m.applied, cmd)
	parts := strings.Fields(cmd)
	if len(parts) != 3 || parts[0] != "set" {
		return fmt.Errorf("bad command %q", cmd)
	}
	m.state[parts[1]] = parts[2]
	return nil
}

// buildSMR wires n replicas (last `crashed` absent), submits the given
// commands at their proposers, and runs for maxSlots slots.
func buildSMR(t *testing.T, n, f, crashed, maxSlots int, seed int64) ([]*Replica, []*kvMachine) {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	live := peers[:n-crashed]

	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 25}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, 0, len(live))
	machines := make([]*kvMachine, 0, len(live))
	for _, p := range live {
		m := newKV()
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return coin.NewLocal(seed + int64(p)*1000 + int64(slot))
			},
			Rotation: live,
			Machine:  m,
			maxSlots: maxSlots,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, rep)
		machines = append(machines, m)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	// Preload each replica's queue before starting.
	for i, rep := range replicas {
		rep.Submit(fmt.Sprintf("set key%d val%d", i, i))
		rep.Submit(fmt.Sprintf("set extra%d yes", i))
	}
	if _, err := net.Run(func() bool {
		for _, rep := range replicas {
			if !rep.Done() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return replicas, machines
}

func TestSMRIdenticalLogsAndStates(t *testing.T) {
	replicas, machines := buildSMR(t, 4, 1, 1, 6, 3)
	first := replicas[0].LogSince(0)
	if len(first) != 6 {
		t.Fatalf("log has %d entries, want 6", len(first))
	}
	for _, rep := range replicas[1:] {
		if !reflect.DeepEqual(rep.LogSince(0), first) {
			t.Fatalf("log divergence:\n%v\nvs\n%v", rep.LogSince(0), first)
		}
	}
	for _, m := range machines[1:] {
		if !reflect.DeepEqual(m.applied, machines[0].applied) {
			t.Fatalf("apply-order divergence: %v vs %v", m.applied, machines[0].applied)
		}
		if !reflect.DeepEqual(m.state, machines[0].state) {
			t.Fatalf("state divergence: %v vs %v", m.state, machines[0].state)
		}
	}
	// All six slots committed (proposers all live): every entry non-skip.
	for _, e := range first {
		if e.Command == "" {
			t.Errorf("slot %d was skipped despite a live proposer", e.Slot)
		}
	}
}

func TestSMRSubmittedCommandsCommitInOrder(t *testing.T) {
	replicas, machines := buildSMR(t, 4, 1, 1, 6, 9)
	// p1 proposes slots 0 and 3; its two commands must land there, in order.
	log := replicas[0].LogSince(0)
	if log[0].Command != "set key0 val0" {
		t.Errorf("slot 0 = %q", log[0].Command)
	}
	if log[3].Command != "set extra0 yes" {
		t.Errorf("slot 3 = %q", log[3].Command)
	}
	if got := machines[0].state["key0"]; got != "val0" {
		t.Errorf("state[key0] = %q", got)
	}
}

func TestSMRNoopWhenQueueEmpty(t *testing.T) {
	// No submissions: every slot commits a noop and machines stay empty.
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	// A zero-width UniformDelay delivers everything at once, in send order.
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, 0, 4)
	machines := make([]*kvMachine, 0, 4)
	for _, p := range peers {
		m := newKV()
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin:  func(slot int) coin.Coin { return coin.NewIdeal(int64(slot)) },
			Machine:  m,
			maxSlots: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, rep)
		machines = append(machines, m)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i, rep := range replicas {
		log := rep.LogSince(0)
		if len(log) != 3 {
			t.Fatalf("replica %d log has %d entries", i, len(log))
		}
		for _, e := range log {
			if e.Command != Noop {
				t.Errorf("expected noop, got %q", e.Command)
			}
		}
		if len(machines[i].applied) != 0 {
			t.Errorf("noop reached the state machine: %v", machines[i].applied)
		}
	}
}

func TestSMRConfigValidation(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	factory := func(int) coin.Coin { return coin.NewIdeal(1) }
	good := Config{Me: 1, Peers: peers, Spec: spec, NewCoin: factory, Machine: newKV()}

	tests := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"no coin", func(c *Config) { c.NewCoin = nil }, ErrNoCoinFactory},
		{"no machine", func(c *Config) { c.Machine = nil }, ErrNoMachine},
		{"bad peers", func(c *Config) { c.Peers = peers[:1] }, quorum.ErrBadPeers},
		{"me absent", func(c *Config) { c.Me = 99 }, quorum.ErrBadPeers},
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

func TestSMRBasics(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	rep, err := New(Config{
		Me: 2, Peers: peers, Spec: spec,
		NewCoin:  func(int) coin.Coin { return coin.NewIdeal(1) },
		Machine:  newKV(),
		maxSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID() != 2 || rep.Done() || rep.Slot() != 0 {
		t.Error("fresh replica accessors wrong")
	}
	// p2 is not slot 0's proposer (rotation default starts at p1): Start
	// sends nothing.
	if msgs := rep.Start(); len(msgs) != 0 {
		t.Errorf("non-proposer Start sent %d messages", len(msgs))
	}
	rep.Submit("set a b") // enqueue only; dissemination happens on our turn
	// Fake proposer path: replica 1 proposes immediately on Start.
	rep1, err := New(Config{
		Me: 1, Peers: peers, Spec: spec,
		NewCoin:  func(int) coin.Coin { return coin.NewIdeal(1) },
		Machine:  newKV(),
		maxSlots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs := rep1.Start(); len(msgs) != 4 {
		t.Errorf("proposer Start sent %d messages, want 4 (noop dissemination)", len(msgs))
	}
	// Garbage payloads are inert.
	if out := rep1.Deliver(types.Message{From: 2, To: 1, Payload: &types.PlainPayload{Round: 1, Step: types.Step1}}); len(out) != 0 {
		t.Errorf("plain payload produced output")
	}
}

// BenchmarkSMRDelivery measures the full per-delivery cost of the
// replicated log on the simulator: candidate dissemination, one binary
// consensus instance per slot, commit, and the next proposal — the
// workload a replicated-log deployment actually runs, forever (maxSlots
// 0 never stops, so all b.N deliveries are steady state). Per-slot setup
// (the consensus instance and its coin) amortizes across the slot's
// thousands of deliveries. Run with -benchmem: expect 0 allocs/op.
func BenchmarkSMRDelivery(b *testing.B) {
	const n, f = 16, 5
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{
		Scheduler:     sim.UniformDelay{Min: 1, Max: 25},
		Seed:          1,
		MaxDeliveries: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range peers {
		p := p
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return coin.NewLocal(int64(p)*1000 + int64(slot))
			},
			Machine: newKV(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Add(rep); err != nil {
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

// TestSMRSteadyStateDeliveryAllocations pins the strict per-delivery hot
// path of a warm replica at exactly zero allocations: duplicate echo
// counting on the dissemination plane must produce no garbage.
func TestSMRSteadyStateDeliveryAllocations(t *testing.T) {
	// Measure a replica that is mid-protocol: run an unbounded log for a
	// fixed prefix of deliveries, then replay a duplicate echo at it.
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 25}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]*Replica, 0, 4)
	for _, p := range peers {
		p := p
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return coin.NewLocal(6 + int64(p)*1000 + int64(slot))
			},
			Machine: newKV(),
		})
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, rep)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if _, err := net.Run(func() bool { count++; return count >= 2000 }); err != nil {
		t.Fatal(err)
	}
	rep := fresh[0]
	echo := types.Message{From: 2, To: rep.ID(), Payload: &types.RBCPayload{
		Phase: types.KindRBCEcho,
		ID:    types.InstanceID{Sender: 1, Tag: types.Tag{Seq: dissemNS}},
		Body:  "replayed-body",
	}}
	rep.Recycle(rep.Deliver(echo))
	allocs := testing.AllocsPerRun(200, func() {
		rep.Recycle(rep.Deliver(echo))
	})
	if allocs != 0 {
		t.Errorf("steady-state SMR delivery cost %.1f allocs/op, want 0", allocs)
	}
}

func TestSMRManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for seed := int64(0); seed < 6; seed++ {
		replicas, _ := buildSMR(t, 4, 1, 1, 4, seed)
		first := replicas[0].LogSince(0)
		for _, rep := range replicas[1:] {
			if !reflect.DeepEqual(rep.LogSince(0), first) {
				t.Fatalf("seed %d: log divergence", seed)
			}
		}
	}
}

// TestRejectedCommandCommitsEverywhere: a command the machine rejects still
// commits at every replica, and Replica.commit drops Apply's error on purpose.
// Apply is deterministic, so every replica rejects the command alike and
// ends with the same state and applied count.
func TestRejectedCommandCommitsEverywhere(t *testing.T) {
	const bad = "garbage"
	if err := NewKVMachine().Apply(bad); err == nil {
		t.Fatalf("KVMachine accepted %q; the test needs a rejected command", bad)
	}
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 25}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, 0, len(peers))
	machines := make([]*KVMachine, 0, len(peers))
	for _, p := range peers {
		m := NewKVMachine()
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin:  func(slot int) coin.Coin { return coin.NewLocal(5 + int64(p)*1000 + int64(slot)) },
			Machine:  m,
			maxSlots: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, rep)
		machines = append(machines, m)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	replicas[0].Submit("set a 1")
	replicas[1].Submit(bad) // p2 proposes slot 1
	replicas[2].Submit("set b 2")
	if _, err := net.Run(func() bool {
		for _, rep := range replicas {
			if !rep.Done() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want, _ := replicas[0].StateDigest()
	for i, rep := range replicas {
		if log := rep.LogSince(0); len(log) < 2 || log[1].Command != bad {
			t.Fatalf("%v: slot 1 did not commit %q: %v", rep.ID(), bad, log)
		}
		if got, _ := rep.StateDigest(); got != want {
			t.Errorf("%v: state digest %x, %v has %x", rep.ID(), got, replicas[0].ID(), want)
		}
		if got := machines[i].applied; got != 3 {
			t.Errorf("%v: applied %d commands, want 3 (two sets and the rejected one)", rep.ID(), got)
		}
	}
	if got := machines[0].state; len(got) != 2 || got["a"] != "1" || got["b"] != "2" {
		t.Errorf("state = %v, want a=1 b=2", got)
	}
}

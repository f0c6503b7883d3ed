// Benchmarks regenerating the evaluation — every registered experiment at
// quick size, held to its claim (internal/experiments) — plus
// microbenchmarks of the hot substrates.
package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/coin"
	"repro/internal/experiments"
	"repro/internal/gf256"
	"repro/internal/quorum"
	"repro/internal/rbc"
	"repro/internal/runner"
	"repro/internal/shamir"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// BenchmarkExperiments regenerates every registered experiment at quick
// size, one table per op, and fails on a table that refutes its claim.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.Options{Quick: true, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- substrate microbenchmarks ----------------------------------------

func BenchmarkGF256Mul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= gf256.Mul(byte(i), byte(i>>8))
	}
	_ = acc
}

func BenchmarkShamirSplit(b *testing.B) {
	secret := []byte{0xAB}
	rng := newRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shamir.Split(secret, 31, 11, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShamirReconstruct(b *testing.B) {
	secret := []byte{0xAB}
	shares, err := shamir.Split(secret, 31, 11, newRand(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shamir.Reconstruct(shares[:11], 11); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeStep(b *testing.B) {
	sm := types.StepMessage{Round: 12, Step: types.Step3, V: types.One, D: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeStep(sm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireRoundTripRBC(b *testing.B) {
	p := &types.RBCPayload{
		Phase: types.KindRBCEcho,
		ID:    types.InstanceID{Sender: 9, Tag: types.Tag{Round: 3, Step: types.Step2}},
		Body:  strings.Repeat("x", 16),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := wire.EncodePayload(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodePayload(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireAppendPayload measures the pooled append-style encode path
// introduced for the zero-allocation delivery loop (expect 0 allocs/op;
// compare BenchmarkWireRoundTripRBC, which allocates per call).
func BenchmarkWireAppendPayload(b *testing.B) {
	p := &types.RBCPayload{
		Phase: types.KindRBCEcho,
		ID:    types.InstanceID{Sender: 9, Tag: types.Tag{Round: 3, Step: types.Step2}},
		Body:  strings.Repeat("x", 16),
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.AppendPayload((*buf)[:0], p)
		if err != nil {
			b.Fatal(err)
		}
		*buf = out[:0]
	}
}

// BenchmarkWireAppendStep measures the canonical step-body encode that
// core.broadcastStep performs once per (round, step).
func BenchmarkWireAppendStep(b *testing.B) {
	sm := types.StepMessage{Round: 12, Step: types.Step3, V: types.One, D: true}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.AppendStep((*buf)[:0], sm)
		if err != nil {
			b.Fatal(err)
		}
		*buf = out[:0]
	}
}

// BenchmarkRBCEchoCounting measures the echo/ready counting path: one
// Broadcaster absorbing a full round of echoes and readies per instance.
// The seed implementation allocated nested map[string]map[ProcessID]bool
// per body; the bitset tallies amortize to well under one alloc per vote.
func BenchmarkRBCEchoCounting(b *testing.B) {
	const n = 16
	spec := quorum.MustNew(n, quorum.MaxByzantine(n))
	peers := types.Processes(n)
	bc := rbc.New(2, peers, spec)
	out := make([]types.Message, 0, 4*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := types.InstanceID{Sender: 1, Tag: types.Tag{Seq: i + 1}}
		echo := &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: "body"}
		ready := &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: "body"}
		for _, p := range peers {
			out, _ = bc.AppendHandle(out[:0], p, echo)
		}
		for _, p := range peers {
			out, _ = bc.AppendHandle(out[:0], p, ready)
		}
	}
	_ = out
}

// bounceNode is a minimal sim.Node that replies to every delivery,
// recycling its output buffer: together with the concrete queue and the
// dense node table it makes the simulator's delivery loop allocation-free,
// which this benchmark demonstrates (expect ~0 allocs/op).
type bounceNode struct {
	id  types.ProcessID
	out []types.Message
}

func (n *bounceNode) ID() types.ProcessID    { return n.id }
func (n *bounceNode) Done() bool             { return false }
func (n *bounceNode) Start() []types.Message { return nil }
func (n *bounceNode) Deliver(m types.Message) []types.Message {
	out := n.out
	n.out = nil
	return append(out, types.Message{From: n.id, To: m.From, Payload: m.Payload})
}
func (n *bounceNode) Recycle(msgs []types.Message) {
	if cap(msgs) > cap(n.out) {
		n.out = msgs[:0]
	}
}

// kickNode opens the rally with one message to peer.
type kickNode struct {
	bounceNode
	peer types.ProcessID
}

func (n *kickNode) Start() []types.Message {
	return []types.Message{{From: n.bounceNode.id, To: n.peer, Payload: &types.DecidePayload{V: types.One}}}
}

// BenchmarkSimDeliveryHotPath measures the full per-delivery cost of the
// simulator — queue pop, dense node lookup, dispatch, reply queueing —
// with b.N deliveries per run.
func BenchmarkSimDeliveryHotPath(b *testing.B) {
	b.ReportAllocs()
	net, err := sim.New(sim.Config{
		Scheduler:     sim.UniformDelay{Min: 1, Max: 20},
		Seed:          1,
		MaxDeliveries: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	a := &kickNode{bounceNode: bounceNode{id: 1}, peer: 2}
	c := &bounceNode{id: 2}
	if err := net.Add(a); err != nil {
		b.Fatal(err)
	}
	if err := net.Add(c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	stats, err := net.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Delivered != b.N {
		b.Fatalf("delivered %d, want %d", stats.Delivered, b.N)
	}
}

// BenchmarkSweep contrasts serial and all-core execution of the same
// 32-seed consensus sweep: ns/op is whole-sweep wall clock, so the ratio
// between the two sub-benchmarks is the multi-core speedup.
func BenchmarkSweep(b *testing.B) {
	cfg := runner.Config{
		N: 7, F: 2, Byzantine: -1,
		Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
		Adversary: runner.AdvSilent, Scheduler: runner.SchedUniform,
		Inputs: runner.InputSplit,
	}
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{fmt.Sprintf("workers=max(%d)", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := runner.SweepSeeds(cfg, seeds, tc.workers)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if len(res.Violations) > 0 {
						b.Fatalf("violations: %v", res.Violations)
					}
				}
			}
		})
	}
}

func BenchmarkCommonCoinRound(b *testing.B) {
	spec := quorum.MustNew(7, 2)
	peers := types.Processes(7)
	dealer := coin.NewDealer(spec, 1)
	coins := make([]*coin.Common, 7)
	for i, p := range peers {
		coins[i] = coin.NewCommon(p, peers, dealer)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round := i + 1
		var all []types.Message
		for _, c := range coins {
			all = append(all, c.Release(round)...)
		}
		for _, m := range all {
			p, ok := m.Payload.(*types.CoinSharePayload)
			if !ok {
				continue
			}
			coins[m.To-1].HandleShare(m.From, p)
		}
		if _, ok := coins[0].Value(round); !ok {
			b.Fatal("coin not reconstructed")
		}
	}
}

package smr

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// buildCodedSMR is buildBatchedSMR with the coded dissemination plane on.
func buildCodedSMR(t *testing.T, n, f, maxSlots, batch, depth, per int, seed int64) ([]*Replica, []*kvMachine) {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 25}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, 0, n)
	machines := make([]*kvMachine, 0, n)
	for _, p := range peers {
		p := p
		m := newKV()
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return coin.NewLocal(seed + int64(p)*1000 + int64(slot))
			},
			Machine:  m,
			maxSlots: maxSlots,
			Batch:    batch,
			Depth:    depth,
			Coded:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < per; c++ {
			if !rep.Submit(fmt.Sprintf("set k%d-%d v%d", p, c, c)) {
				t.Fatalf("preload submission %d rejected at %v", c, p)
			}
		}
		replicas = append(replicas, rep)
		machines = append(machines, m)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
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

// TestSMRCodedClusterAgrees: with erasure-coded dissemination the cluster
// still commits one identical log everywhere — and that log, entry for entry
// and digest for digest, is the log the uncoded cluster commits under the
// same configuration. Coding is a transport optimization; nothing above the
// dissemination plane may notice it.
func TestSMRCodedClusterAgrees(t *testing.T) {
	const n, f, slots, batch, depth, per, seed = 4, 1, 8, 3, 2, 6, 5
	coded, codedMachines := buildCodedSMR(t, n, f, slots, batch, depth, per, seed)
	uncoded, _ := buildBatchedSMR(t, n, f, slots, batch, depth, per, seed)

	first := coded[0].LogSince(0)
	for _, rep := range coded[1:] {
		if !reflect.DeepEqual(rep.LogSince(0), first) {
			t.Fatalf("coded log divergence:\n%v\nvs\n%v", rep.LogSince(0), first)
		}
	}
	for _, m := range codedMachines[1:] {
		if !reflect.DeepEqual(m.applied, codedMachines[0].applied) {
			t.Fatalf("coded apply-order divergence")
		}
	}
	if !reflect.DeepEqual(first, uncoded[0].LogSince(0)) {
		t.Fatalf("coded log differs from uncoded control:\n%v\nvs\n%v", first, uncoded[0].LogSince(0))
	}
	if coded[0].LogDigest() != uncoded[0].LogDigest() {
		t.Fatalf("coded digest %x, uncoded %x", coded[0].LogDigest(), uncoded[0].LogDigest())
	}
}

// TestSMRCodedRejectsLargeClusters: rscode caps n at 255; the Config seam
// must surface that at construction, not at the first dispersal.
func TestSMRCodedSmallCluster(t *testing.T) {
	// n=1 f=0 (k=1): the degenerate single-replica cluster still works coded.
	replicas, _ := buildCodedSMR(t, 1, 0, 2, 1, 1, 2, 3)
	if got := len(replicas[0].LogSince(0)); got != 2 {
		t.Fatalf("singleton coded cluster committed %d entries, want 2", got)
	}
}

// BenchmarkSMRCodedDelivery is BenchmarkSMRBatchedDelivery with coded
// dissemination live: the zero-allocation delivery gate must hold when
// proposing turns disperse fragments and commits decode them (the per-slot
// coding work amortizes across the slot's thousands of deliveries, like the
// consensus setup itself).
func BenchmarkSMRCodedDelivery(b *testing.B) {
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
			Batch:   8,
			Depth:   2,
			Coded:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < 4096; c++ {
			rep.Submit(fmt.Sprintf("set k%d-%d v%d", p, c, c))
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

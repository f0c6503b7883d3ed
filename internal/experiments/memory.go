package experiments

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/types"
)

// E11MemoryPruning regenerates Table 7: the memory effect of per-round state
// pruning (entering round r releases everything below r−1). Each row runs
// the same non-halting consensus workload — decide gadget off, MaxRounds
// pinned — at 6 and then 12 rounds, and measures what the cluster still
// holds, retainer by retainer (ARCHITECTURE.md maps the lifecycle of each):
//
//   - accepted msgs: justified step messages in the quorum-wait tables;
//   - rbc live inst: full-fidelity reliable-broadcast instances (tallies and
//     payloads), with rbc digests counting the compact delivered records
//     that replaced pruned ones;
//   - val seen: the validators' per-sender dedup entries;
//   - dealer rounds: the common-coin dealer's memoized sharings, pruned by
//     the cluster low-watermark (minimum round across nodes).
//
// The shape to verify: doubling the rounds leaves every retainer count
// unchanged — two rounds × 3 steps × n per node — while deliveries double
// and rbc digests grow. Peak heap is sampled with runtime.ReadMemStats every few
// thousand deliveries; retained heap is measured after a forced GC with the
// nodes still live. Runs are serial — concurrent workers would share the
// heap under measurement.
//
// Determinism note: deliveries and all retainer counts are pure functions
// of (config, seed) — byte-stable across reruns, worker counts, and
// machines, like every other table. The two heap columns and the allocs
// column are runtime telemetry: GC timing moves the heap numbers a few
// percent between processes, and Mallocs picks up a handful of scheduler
// allocations left over from other experiments' worker pools, so all three
// are exempt from the bitwise-regeneration contract, exactly like the
// per-table timing suffixes bench prints.
func E11MemoryPruning(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E11 / Table 7 — per-round pruning: retained state by retainer as rounds double",
		"n", "f", "rounds", "deliveries", "accepted msgs",
		"rbc live inst", "rbc digests", "val seen", "dealer rounds",
		"retained heap", "peak heap", "allocs")
	sizes := []int{64, 128}
	if o.Quick {
		sizes = []int{16}
	}
	for _, n := range sizes {
		for _, rounds := range []int{6, 12} {
			res, err := runMemoryWorkload(n, rounds, o.Seed)
			if err != nil {
				return nil, err
			}
			t.AddRowf(n, quorum.MaxByzantine(n), rounds, res.deliveries,
				res.retainedAccepted, res.rbcLive, res.rbcDigests, res.valSeen,
				res.dealerRounds, mib(res.retainedHeap), mib(res.peakHeap), res.allocs)
		}
	}
	return t, nil
}

// mib renders a byte count as MiB with two decimals.
func mib(b uint64) string {
	return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
}

type memoryResult struct {
	deliveries       int
	retainedAccepted int    // accepted messages still held (deterministic)
	rbcLive          int    // full-fidelity RBC instances still held
	rbcDigests       int    // compact delivered records
	valSeen          int    // validator per-sender dedup entries still held
	dealerRounds     int    // dealer sharings still memoized
	retainedHeap     uint64 // live heap after run + forced GC, nodes alive
	peakHeap         uint64 // max sampled HeapAlloc during the run
	allocs           uint64 // Mallocs delta across the run
}

// runMemoryWorkload drives one all-correct common-coin cluster for a fixed
// number of rounds with the decide gadget off, so every node marches through
// exactly `rounds` rounds whatever it decides — the state-retention workload
// behind E11 and the pruning claims in EXPERIMENTS.md. The dealer is pruned
// by the cluster low-watermark on the same delivery cadence the runner uses.
func runMemoryWorkload(n, rounds int, seed int64) (*memoryResult, error) {
	f := quorum.MaxByzantine(n)
	spec, err := quorum.New(n, f)
	if err != nil {
		return nil, err
	}
	peers := types.Processes(n)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	net, err := sim.New(sim.Config{
		Scheduler: sim.UniformDelay{Min: 1, Max: 20},
		Seed:      seed,
		// The workload is bounded by MaxRounds, not the delivery budget.
		MaxDeliveries: math.MaxInt,
	})
	if err != nil {
		return nil, err
	}
	dealer := coin.NewDealer(spec, seed+1)
	nodes := make([]*core.Node, 0, n)
	for i, p := range peers {
		nd, err := core.New(core.Config{
			Me: p, Peers: peers, Spec: spec,
			Coin:                coin.NewCommon(p, peers, dealer),
			Proposal:            types.Value(i % 2),
			DisableDecideGadget: true,
			MaxRounds:           rounds,
		})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, nd)
		if err := net.Add(nd); err != nil {
			return nil, err
		}
	}

	peak := uint64(0)
	delivered := 0
	sample := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peak {
			peak = m.HeapAlloc
		}
	}
	stats, err := net.Run(func() bool {
		delivered++
		if delivered%runner.DealerScanEvery == 0 {
			low := nodes[0].Round()
			for _, nd := range nodes[1:] {
				low = min(low, nd.Round())
			}
			dealer.Prune(low)
		}
		if delivered%(1<<14) == 0 {
			sample()
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	sample()

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res := &memoryResult{
		deliveries:   stats.Delivered,
		peakHeap:     peak,
		allocs:       after.Mallocs - before.Mallocs,
		dealerRounds: dealer.RoundsRetained(),
	}
	if after.HeapAlloc > before.HeapAlloc {
		res.retainedHeap = after.HeapAlloc - before.HeapAlloc
	}
	for _, nd := range nodes {
		res.retainedAccepted += nd.AcceptedRetained()
		res.rbcLive += nd.RBCLiveInstances()
		res.rbcDigests += nd.RBCCompacted()
		res.valSeen += nd.ValidatorSeenRetained()
	}
	runtime.KeepAlive(net)
	return res, nil
}

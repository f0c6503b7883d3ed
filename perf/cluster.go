package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/acs"
	"repro/internal/adversary"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
	"repro/internal/wire"
)

// The bare clusters: what runner.RunSMR and runner.Run assemble for the
// benchmark's workloads, built again here from the public constructors so
// that each node can sit behind a spanNode. They keep the runner's shape —
// n, batch, depth, coding, body size, delays, coin and dealer seeding, the
// restart schedule — and leave out what only the runner does per delivery:
// tailing every replica's log, the canonical-entry map, the digest chain.
// The difference in ns/delivery between the two is the harness cost.

// bareStats is what one bare pass reports.
type bareStats struct {
	wall       time.Duration // inside Network.Run only
	ops        int
	messages   int64
	deliveries int64
	commits    []commitMark // replica 1's slot commits, in order (smr only)
}

// commitMark is when replica 1 committed a slot.
type commitMark struct {
	tick sim.Time      // sim time of the last send before the commit was seen
	at   time.Duration // wall time since the run began
}

func (st *bareStats) addRun(tr *tracer, net *sim.Network, stop func() bool) error {
	var stats sim.Stats
	run := func() (err error) {
		stats, err = net.Run(stop)
		return err
	}
	start := time.Now()
	var err error
	if tr != nil {
		err = tr.timeRun(run)
	} else {
		err = run()
	}
	st.wall += time.Since(start)
	if err != nil {
		return err
	}
	if stats.Exhausted {
		return fmt.Errorf("bare cluster exhausted its delivery budget after %d deliveries", stats.Delivered)
	}
	st.messages += int64(stats.Sent)
	st.deliveries += int64(stats.Delivered)
	return nil
}

// clockSched lets the benchmark read sim time from outside: the scheduler is
// handed the network clock with every send.
type clockSched struct {
	inner sim.Scheduler
	now   sim.Time
}

func (c *clockSched) Deliver(m types.Message, now sim.Time, seq uint64, rng *rand.Rand) sim.Time {
	c.now = now
	return c.inner.Deliver(m, now, seq, rng)
}

// bare runs the replicated-log cluster runner.RunSMR builds for in.cfg. It
// supports what the benchmark's workloads use: uniform delays, local or
// common coin, checkpoints, and the kill/revive of the last replica.
func (in smrInstance) bare(tr *tracer) (bareStats, error) {
	cfg := in.cfg
	var st bareStats
	spec, err := quorum.New(cfg.N, cfg.F)
	if err != nil {
		return st, err
	}
	peers := types.Processes(cfg.N)
	rotation := peers
	if cfg.Restart != nil {
		rotation = peers[:len(peers)-1] // the victim must not hold up slots
	}
	clock := &clockSched{inner: sim.UniformDelay{Min: 1, Max: 20}}
	net, err := sim.New(sim.Config{
		Scheduler:     clock,
		Seed:          cfg.Seed,
		MaxDeliveries: max(16*(cfg.Slots+cfg.Depth)*cfg.N*cfg.N*cfg.N, sim.DefaultMaxDeliveries),
		Sizer:         wire.MessageSize,
	})
	if err != nil {
		return st, err
	}

	var dealers *coin.DealerSet
	if cfg.Coin == runner.CoinCommon {
		dealers = coin.NewDealerSet(spec, cfg.Seed+1)
	}
	newCoin := func(p types.ProcessID) func(int) coin.Coin {
		if dealers != nil {
			return func(slot int) coin.Coin { return coin.NewCommon(p, peers, dealers.For(slot)) }
		}
		return func(slot int) coin.Coin { return coin.NewLocal(cfg.Seed + int64(p)*1000 + int64(slot)) }
	}

	reps := make([]*smr.Replica, len(peers)) // each process's current replica
	cuts := make([]int, len(peers))
	began, seen := time.Now(), 0
	// poll notices replica 1's new commits: ops are its entries below the
	// Slots frontier, and each slot leaves a commit mark.
	poll := func() {
		slot := reps[0].Slot()
		if slot == seen {
			return
		}
		for _, e := range reps[0].LogSince(seen) {
			if e.Slot < cfg.Slots {
				st.ops++
			}
		}
		for ; seen < slot; seen++ {
			st.commits = append(st.commits, commitMark{tick: clock.now, at: time.Since(began)})
		}
	}
	build := func(i int) (*smr.Replica, error) {
		rcfg := smr.Config{
			Me: peers[i], Peers: peers, Spec: spec,
			NewCoin:  newCoin(peers[i]),
			Rotation: rotation,
			Machine:  tr.machine(smr.NewKVMachine()),
			Batch:    cfg.Batch, Depth: cfg.Depth, Coded: cfg.Coded,
		}
		if cfg.CheckpointEvery > 0 {
			rcfg.CheckpointEvery = cfg.CheckpointEvery
			rcfg.CheckpointSecret = []byte(fmt.Sprintf("smr-ckpt-%d", cfg.Seed))
			rcfg.OnCertified = func(cut int) {
				if i == 0 {
					poll() // before the entries below the cut are truncated
				}
				if cut > cuts[i] {
					cuts[i] = cut
					if dealers != nil {
						low := cuts[0]
						for _, c := range cuts[1:] {
							low = min(low, c)
						}
						dealers.ReleaseBelow(low)
					}
				}
			}
		}
		rep, err := smr.New(rcfg)
		reps[i] = rep
		return rep, err
	}

	var victim *sim.Restart
	for i, p := range peers {
		if cfg.Restart != nil && i == len(peers)-1 {
			victim = sim.NewRestart(func() sim.Node {
				rep, err := build(i)
				if err != nil {
					panic(fmt.Sprintf("perf: building victim %v: %v", p, err))
				}
				return rep
			}, cfg.Restart.CrashAfter, cfg.Restart.ReviveAfter)
			if err := net.Add(tr.wrap(victim)); err != nil {
				return st, err
			}
			continue
		}
		rep, err := build(i)
		if err != nil {
			return st, err
		}
		for c := 0; c < cfg.Commands; c++ {
			// The runner's preloaded commands, byte for byte.
			cmd := fmt.Sprintf("set k%d-%d v%d-%d", p, c, p, c)
			if pad := cfg.CommandBytes - len(cmd); pad > 0 {
				cmd += strings.Repeat("x", pad)
			}
			rep.Submit(cmd)
		}
		if err := net.Add(tr.wrap(rep)); err != nil {
			return st, err
		}
	}

	stop := func() bool {
		poll()
		if seen < cfg.Slots {
			return false
		}
		if victim != nil && (victim.Down() || !victim.Restarted()) {
			return false
		}
		for _, rep := range reps {
			if rep.Slot() < cfg.Slots {
				return false
			}
		}
		return true
	}
	began = time.Now()
	err = st.addRun(tr, net, stop)
	return st, err
}

// bare runs, seed by seed on this goroutine, the consensus cluster
// runner.Run builds for in.cfg: Bracha nodes on the common coin, with the
// liar adversary under rushed Byzantine traffic, or with silent faults over
// FIFO links.
func (in consensusInstance) bare(tr *tracer) (bareStats, error) {
	var st bareStats
	cfg := in.cfg
	spec, err := quorum.New(cfg.N, cfg.F)
	if err != nil {
		return st, err
	}
	peers := types.Processes(cfg.N)
	correct, byz := peers[:cfg.N-cfg.F], peers[cfg.N-cfg.F:]
	for _, seed := range in.seeds {
		var sched sim.Scheduler = sim.UniformDelay{Min: 1, Max: 20}
		switch cfg.Scheduler {
		case runner.SchedRushByz:
			sched = sim.Compose{Base: sched, Rules: []sim.Rule{sim.RushFrom(byz...)}}
		case runner.SchedFIFO:
			sched = sim.NewFIFODelay(1, 20)
		}
		net, err := sim.New(sim.Config{Scheduler: sched, Seed: seed, Sizer: wire.MessageSize})
		if err != nil {
			return st, err
		}
		dealer := coin.NewDealer(spec, seed+1)
		nodes := make([]*core.Node, len(correct))
		for i, p := range correct {
			nodes[i], err = core.New(core.Config{
				Me: p, Peers: peers, Spec: spec,
				Coin:     coin.NewCommon(p, peers, dealer),
				Proposal: types.Value(i % 2),
			})
			if err != nil {
				return st, err
			}
			if err := net.Add(tr.wrap(nodes[i])); err != nil {
				return st, err
			}
		}
		if cfg.Adversary == runner.AdvLiar {
			for _, p := range byz {
				liar, err := adversary.NewLiar(core.Config{
					Me: p, Peers: peers, Spec: spec,
					Coin:     coin.NewLocal(seed + 7777*int64(p)),
					Proposal: types.Zero,
				})
				if err != nil {
					return st, err
				}
				if err := net.Add(tr.wrap(liar)); err != nil {
					return st, err
				}
			}
		}
		stop := func() bool {
			for _, nd := range nodes {
				if !nd.Done() {
					return false
				}
			}
			return true
		}
		if err := st.addRun(tr, net, stop); err != nil {
			return st, err
		}
		if stop() {
			st.ops++
		}
	}
	return st, nil
}

// acsBare runs one asynchronous-common-subset instance at n=7 per seed. No
// end-to-end workload enters internal/acs yet; this is its baseline.
func acsBare(seeds []int64, tr *tracer) (bareStats, error) {
	const n = 7
	var st bareStats
	spec, err := quorum.New(n, quorum.MaxByzantine(n))
	if err != nil {
		return st, err
	}
	peers := types.Processes(n)
	for _, seed := range seeds {
		net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: seed, Sizer: wire.MessageSize})
		if err != nil {
			return st, err
		}
		nodes := make([]*acs.Node, n)
		for i, p := range peers {
			nodes[i], err = acs.New(acs.Config{
				Me: p, Peers: peers, Spec: spec,
				NewCoin: func(inst int) coin.Coin { return coin.NewLocal(seed + 1000*int64(p) + int64(inst)) },
				Input:   fmt.Sprintf("input-%d-%d", seed, p),
			})
			if err != nil {
				return st, err
			}
			if err := net.Add(tr.wrap(nodes[i])); err != nil {
				return st, err
			}
		}
		stop := func() bool {
			for _, nd := range nodes {
				if _, ok := nd.Output(); !ok {
					return false
				}
			}
			return true
		}
		if err := st.addRun(tr, net, stop); err != nil {
			return st, err
		}
		if stop() {
			st.ops++
		}
	}
	return st, nil
}

package experiments

import (
	"fmt"

	"repro/internal/acs"
	"repro/internal/coin"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// E9ACS regenerates Table 5 (extension): Asynchronous Common Subset — the
// HoneyBadgerBFT core built from the paper's primitives. Expected shape:
// ≥ n−f inputs always included, identical subsets at all correct processes,
// cost ≈ n × (one RBC + one binary consensus) per agreement.
func E9ACS(o Options) (*metrics.Table, error) {
	o = Defaults(o)
	t := metrics.NewTable(
		"E9 / Table 5 — Asynchronous Common Subset (extension; BKR'94 over Bracha primitives)",
		"n", "f", "runs", "agreed subsets", "mean subset size", "mean msgs", "mean sim-time")
	for _, n := range o.sizes() {
		f := quorum.MaxByzantine(n)
		agreed := 0
		var size, msgs, simTime metrics.Online
		for i := 0; i < o.Runs; i++ {
			res, err := runACS(n, f, o.Seed+int64(i))
			if err != nil {
				return nil, err
			}
			if res.agreed {
				agreed++
				size.Add(float64(res.subsetSize))
				msgs.Add(float64(res.messages))
				simTime.Add(float64(res.endTime))
			}
		}
		t.AddRowf(n, f, o.Runs, fmt.Sprintf("%d/%d", agreed, o.Runs),
			size.Mean, msgs.Mean, simTime.Mean)
	}
	return t, nil
}

type acsResult struct {
	agreed     bool
	subsetSize int
	messages   int
	endTime    sim.Time
}

// runACS executes one ACS round with f silent Byzantine processes.
func runACS(n, f int, seed int64) (*acsResult, error) {
	spec, err := quorum.New(n, f)
	if err != nil {
		return nil, err
	}
	peers := types.Processes(n)
	dealers := make([]*coin.Dealer, n+1)
	for i := 1; i <= n; i++ {
		dealers[i] = coin.NewDealer(spec, seed+int64(i)*77)
	}
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: seed})
	if err != nil {
		return nil, err
	}
	nodes := make([]*acs.Node, 0, n-f)
	for _, p := range peers[:n-f] {
		p := p
		nd, err := acs.New(acs.Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(inst int) coin.Coin {
				return coin.NewCommon(p, peers, dealers[inst])
			},
			Input: fmt.Sprintf("batch-%v", p),
		})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, nd)
		if err := net.Add(nd); err != nil {
			return nil, err
		}
	}
	stats, err := net.Run(func() bool {
		for _, nd := range nodes {
			if _, ok := nd.Output(); !ok {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	res := &acsResult{messages: stats.Sent, endTime: stats.End}
	first, ok := nodes[0].Output()
	if !ok || len(first) < spec.Quorum() {
		return res, nil
	}
	for _, nd := range nodes[1:] {
		got, ok := nd.Output()
		if !ok || len(got) != len(first) {
			return res, nil
		}
		for i := range got {
			if got[i] != first[i] {
				return res, nil
			}
		}
	}
	res.agreed = true
	res.subsetSize = len(first)
	return res, nil
}

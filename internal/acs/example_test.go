package acs_test

import (
	"fmt"
	"slices"

	"repro/internal/acs"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Example is one HoneyBadgerBFT-style batch round: each of seven replicas
// contributes its pending transactions, two of them (p6, p7) are Byzantine
// and silent, and the five correct replicas agree on the same subset of at
// least n−f batches.
func Example() {
	const n, f, seed = 7, 2, 4242
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)

	// One coin dealer per binary instance: instances share no coin state.
	dealers := make([]*coin.Dealer, n+1)
	for i := 1; i <= n; i++ {
		dealers[i] = coin.NewDealer(spec, seed+int64(i)*13)
	}

	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 40}, Seed: seed})
	if err != nil {
		fmt.Println(err)
		return
	}
	nodes := make([]*acs.Node, 0, n-f)
	for _, p := range peers[:n-f] {
		node, err := acs.New(acs.Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(inst int) coin.Coin {
				return coin.NewCommon(p, peers, dealers[inst])
			},
			Input: fmt.Sprintf("batch{tx-%d-1, tx-%d-2, tx-%d-3}", p, p, p),
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		nodes = append(nodes, node)
		if err := net.Add(node); err != nil {
			fmt.Println(err)
			return
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
		fmt.Println(err)
		return
	}

	first, _ := nodes[0].Output()
	fmt.Printf("agreed subset (%d of %d inputs, %d messages):\n", len(first), n, stats.Sent)
	for _, p := range first {
		fmt.Printf("  %v -> %s\n", p.Proposer, p.Value)
	}
	for _, nd := range nodes[1:] {
		got, _ := nd.Output()
		if !slices.Equal(got, first) {
			fmt.Printf("%v output a different subset: %v\n", nd.ID(), got)
		}
	}
	fmt.Printf("all %d correct replicas output this subset\n", len(nodes))
	// Output:
	// agreed subset (5 of 7 inputs, 10003 messages):
	//   p1 -> batch{tx-1-1, tx-1-2, tx-1-3}
	//   p2 -> batch{tx-2-1, tx-2-2, tx-2-3}
	//   p3 -> batch{tx-3-1, tx-3-2, tx-3-3}
	//   p4 -> batch{tx-4-1, tx-4-2, tx-4-3}
	//   p5 -> batch{tx-5-1, tx-5-2, tx-5-3}
	// all 5 correct replicas output this subset
}

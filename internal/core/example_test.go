package core_test

import (
	"fmt"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Example runs a complete four-process consensus (tolerating one Byzantine
// process, here absent) on the simulated asynchronous network.
func Example() {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	// A zero-width UniformDelay delivers everything at once, in send order.
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{}, Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	proposals := []types.Value{types.One, types.One, types.Zero, types.One}
	nodes := make([]*core.Node, len(peers))
	for i, p := range peers {
		nodes[i], err = core.New(core.Config{
			Me:       p,
			Peers:    peers,
			Spec:     spec,
			Coin:     coin.NewIdeal(7),
			Proposal: proposals[i],
		})
		if err != nil {
			fmt.Println(err)
			return
		}
		if err := net.Add(nodes[i]); err != nil {
			fmt.Println(err)
			return
		}
	}
	if _, err := net.Run(nil); err != nil {
		fmt.Println(err)
		return
	}
	for _, nd := range nodes {
		v, _ := nd.Decided()
		fmt.Printf("%v decided %v in round %d\n", nd.ID(), v, nd.DecidedRound())
	}
	// Output:
	// p1 decided 1 in round 1
	// p2 decided 1 in round 1
	// p3 decided 1 in round 1
	// p4 decided 1 in round 1
}

package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// tapNode records every message delivered to the wrapped node.
type tapNode struct {
	*Node
	got []types.Message
}

func (t *tapNode) Deliver(m types.Message) []types.Message {
	t.got = append(t.got, m)
	return t.Node.Deliver(m)
}

// appendScript captures the traffic p1 receives in a four-process run and
// perturbs it with rng: messages are duplicated and swapped with a
// neighbour, and DECIDE votes that must not count (another instance, an
// invalid value) are mixed in. Nothing is dropped, so the replaying node
// still halts, and the script ends by replaying the run's first ten
// messages, which must reach it halted.
func appendScript(t *testing.T, rng *rand.Rand, seed int64) []types.Message {
	t.Helper()
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 20}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var tap *tapNode
	var nodes []*Node
	for i, p := range peers {
		nd, err := New(Config{Me: p, Peers: peers, Spec: spec, Coin: coin.NewIdeal(seed), Proposal: types.Value(i % 2)})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		var node sim.Node = nd
		if p == 1 {
			tap = &tapNode{Node: nd}
			node = tap
		}
		if err := net.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func() bool {
		return !slices.ContainsFunc(nodes, func(nd *Node) bool { return !nd.Done() })
	}); err != nil {
		t.Fatal(err)
	}
	var script []types.Message
	for _, m := range tap.got {
		switch x := rng.Intn(20); {
		case x == 0:
			script = append(script, m)
		case x == 1 && len(script) > 0:
			script = append(script, m)
			last := len(script) - 1
			script[last-1], script[last] = script[last], script[last-1]
			continue
		case x == 2:
			vote := &types.DecidePayload{V: types.Value(rng.Intn(2)), Instance: 1}
			if rng.Intn(2) == 0 {
				vote.V, vote.Instance = 2, 0
			}
			script = append(script, types.Message{From: peers[rng.Intn(4)], To: 1, Payload: vote})
		}
		script = append(script, m)
	}
	return append(script, tap.got[:10]...)
}

// TestAppendMatchesDeliver drives twin nodes with one random script: one
// through Start and Deliver (recycling each result, as the simulator does),
// the other through AppendStart and AppendDeliver onto a non-empty prefix.
// The prefix must come back untouched and the appended tail must equal
// Deliver's output, message for message, including after the twins halt.
func TestAppendMatchesDeliver(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := appendScript(t, rng, seed)
		twins := [2]*Node{}
		for i := range twins {
			nd, err := New(Config{Me: 1, Peers: peers, Spec: spec, Coin: coin.NewIdeal(seed)})
			if err != nil {
				t.Fatal(err)
			}
			twins[i] = nd
		}
		byDeliver, byAppend := twins[0], twins[1]
		check := func(step int, want []types.Message, call func([]types.Message) []types.Message) {
			t.Helper()
			prefix := make([]types.Message, 1+rng.Intn(3), 4+rng.Intn(4))
			for i := range prefix {
				prefix[i] = types.Message{From: 99, To: types.ProcessID(i)}
			}
			saved := slices.Clone(prefix)
			got := call(prefix)
			if !reflect.DeepEqual(prefix, saved) || !reflect.DeepEqual(got[:len(saved)], saved) {
				t.Fatalf("seed %d step %d: prefix changed: %v", seed, step, got[:len(saved)])
			}
			if tail := got[len(saved):]; len(tail) != len(want) || (len(want) > 0 && !reflect.DeepEqual(tail, want)) {
				t.Fatalf("seed %d step %d: appended %d messages, Deliver emitted %d", seed, step, len(tail), len(want))
			}
			byDeliver.Recycle(want)
		}
		check(-1, byDeliver.Start(), byAppend.AppendStart)
		for i, m := range script {
			check(i, byDeliver.Deliver(m), func(out []types.Message) []types.Message {
				return byAppend.AppendDeliver(out, m)
			})
		}
		if !byDeliver.Done() || !byAppend.Done() {
			t.Fatalf("seed %d: twins did not halt on the %d-message script", seed, len(script))
		}
		if a, b := byDeliver.Stats(), byAppend.Stats(); a != b {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, a, b)
		}
	}
}

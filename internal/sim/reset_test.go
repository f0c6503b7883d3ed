package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/types"
)

// netEnd is what a run leaves in its network beyond Stats: the state Reset
// must clear before the next run.
type netEnd struct {
	dead, queued int
	seq          uint64
	now          Time
}

func endOf(n *Network) netEnd {
	return netEnd{dead: n.dead, queued: n.queue.Len(), seq: n.seq, now: n.now}
}

// TestNetworkResetMatchesNew re-arms a network that stopped mid-run and
// holds its next run equal to the same script on a new network: the
// summary of Stats and per-kind telemetry, every trace event (each
// delivery's time, seq and message among them) and the state the run
// leaves behind. The first run of each pair is a dead-mail script with the
// recorder on, so it can stop with near events, far-heap events and dead
// mail still queued; the second is every named script over the first's
// processes, with the recorder off and on.
func TestNetworkResetMatchesNew(t *testing.T) {
	cases := deadMailCases()
	names := make([]string, 0, len(cases))
	// order-free: sorted below
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	firsts := map[string]deadMailScript{
		// Processes 1 and 2 mail live and dead processes 1..3 ticks and
		// 300..700 ticks ahead; the stop after two deliveries leaves some
		// of each queued.
		"stopped-with-everything-queued": {
			live: 0b011, start: 4, fan: 2, rounds: 10, budget: 1000, stopAfter: 2,
			sends: []mailSend{{1, 2}, {3, 3}, {2, 226}, {4, 227}, {2, 1}, {3, 230}, {1, 3}, {4, 1}},
		},
	}
	for _, name := range names {
		firsts[name] = cases[name].s
	}
	leftAll := false
	for _, a := range append([]string{"stopped-with-everything-queued"}, names...) {
		first := firsts[a]
		for _, b := range names {
			second := cases[b].s
			second.live = first.live | 1
			for _, traced := range []bool{false, true} {
				_, n := runDeadMail(t, first, true)
				leftAll = leftAll || n.dead > 0 && len(n.queue.far.a) > 0 && n.queue.occupied != [queueSpan / 64]uint64{}
				got, _ := playDeadMail(t, n, second, traced)
				gotEnd, gotEvents := endOf(n), n.cfg.Recorder.Events()
				want, fresh := runDeadMail(t, second, traced)
				if got != want {
					t.Errorf("%s then %s (traced %v): re-armed run\n got %s\nwant %s", a, b, traced, got, want)
				}
				if wantEnd := endOf(fresh); gotEnd != wantEnd {
					t.Errorf("%s then %s (traced %v): re-armed run ends at %+v, new one at %+v", a, b, traced, gotEnd, wantEnd)
				}
				if wantEvents := fresh.cfg.Recorder.Events(); !reflect.DeepEqual(gotEvents, wantEvents) {
					t.Errorf("%s then %s (traced %v): re-armed run traced %d events, new one %d, not the same",
						a, b, traced, len(gotEvents), len(wantEvents))
				}
			}
		}
	}
	if !leftAll {
		t.Error("no first run stopped with near events, far events and dead mail all queued")
	}
}

// TestNetworkResetKeepsNodesAndBlocks: Reset keeps the registered nodes in
// their order and the queue's chunk blocks, and refuses a config without a
// scheduler as New does.
func TestNetworkResetKeepsNodesAndBlocks(t *testing.T) {
	_, n := runDeadMail(t, deadMailCases()["dead-mail-far-ahead"].s, true)
	order, blocks := slices.Clone(n.order), slices.Clone(n.queue.blocks)
	if len(blocks) == 0 {
		t.Fatal("the run allocated no chunk block")
	}
	if err := n.Reset(Config{}); err != ErrNoScheduler {
		t.Fatalf("Reset without a scheduler: %v, want ErrNoScheduler", err)
	}
	if err := n.Reset(Config{Scheduler: Immediate{}}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(n.order, order) || !slices.Equal(n.queue.blocks, blocks) {
		t.Errorf("after Reset: order %v, %d blocks; want %v and the %d blocks of the run", n.order, len(n.queue.blocks), order, len(blocks))
	}
	if n.dense[1] == nil || n.lookup(types.ProcessID(1)) == nil {
		t.Error("after Reset: process 1 no longer registered")
	}
	if err := n.Add(n.nodes[1]); err == nil {
		t.Error("after Reset: a registered node was added again")
	}
}

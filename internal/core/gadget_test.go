package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/types"
)

// gadgetHost is what the DECIDE-gadget scripts drive: a consensus node of
// either protocol.
type gadgetHost interface {
	Start() []types.Message
	Deliver(types.Message) []types.Message
	Decided() (types.Value, bool)
	DecidedRound() int
	Done() bool
}

// decideVote is one scripted DECIDE delivery. A nil payload is a typed nil
// *types.DecidePayload; foreign votes carry an instance other than the
// host's. relay marks the one vote that must emit the host's DECIDE(v)
// broadcast; every other vote must emit nothing.
type decideVote struct {
	from    types.ProcessID
	v       types.Value
	nilPay  bool
	foreign bool
	relay   bool
}

// TestDecideGadget runs the same DECIDE-vote scripts against a started
// Bracha node and a started Ben-Or node (n=7, f=2: relay at 3 matching
// votes, halt at 5) and compares every emission and the final decision
// state. The rule is the paper's READY amplification applied to decisions:
// one vote per peer, counted per value, relay once at f+1, decide and halt
// at 2f+1, and with the gadget off, halt but never relay. A sender outside
// the peers 1..n holds no vote.
func TestDecideGadget(t *testing.T) {
	const me = 1
	spec := quorum.MustNew(7, 2)
	peers := types.Processes(7)
	votes := func(v types.Value, from ...types.ProcessID) []decideVote {
		out := make([]decideVote, len(from))
		for i, p := range from {
			out[i] = decideVote{from: p, v: v}
		}
		return out
	}
	relayAt := func(vs []decideVote, i int) []decideVote {
		vs[i].relay = true
		return vs
	}
	cases := []struct {
		name    string
		off     bool // DisableDecideGadget
		script  []decideVote
		decided bool
		v       types.Value
	}{
		{name: "f forged votes", script: votes(types.One, 6, 7)},
		{name: "f+1 votes relay once", script: relayAt(votes(types.One, 5, 6, 7, 4), 2)},
		{name: "2f+1 votes decide and halt", script: relayAt(votes(types.Zero, 2, 3, 4, 5, 6, 7), 2),
			decided: true, v: types.Zero},
		{name: "per-value counts", script: relayAt(append(votes(types.Zero, 2, 3), votes(types.One, 4, 5, 6, 7)...), 4)},
		{name: "duplicates and invalid values ignored", script: []decideVote{
			{from: 2, v: types.One}, {from: 2, v: types.One}, {from: 2, v: types.Zero},
			{from: 3, v: types.Zero}, {from: 4, v: 2}, {from: 5, nilPay: true},
			{from: 4, v: types.One}, {from: 5, v: types.One, relay: true},
			{from: 6, v: types.One}, {from: 7, v: types.One},
		}, decided: true, v: types.One},
		{name: "foreign instance ignored", script: append(
			[]decideVote{{from: 2, v: types.One, foreign: true}, {from: 3, v: types.One, foreign: true},
				{from: 4, v: types.One, foreign: true}, {from: 5, v: types.One, foreign: true},
				{from: 6, v: types.One, foreign: true}},
			relayAt(votes(types.One, 2, 3, 4), 2)...)},
		{name: "non-peer votes ignored", script: relayAt(append(votes(types.One, 8, 0, -1, 99, 1<<20),
			votes(types.One, 2, 3, 4, 5, 6)...), 7), decided: true, v: types.One},
		{name: "gadget off halts without relaying", off: true, script: votes(types.One, 7, 6, 5, 4, 3, 2),
			decided: true, v: types.One},
	}
	hosts := []struct {
		name     string
		instance int
		build    func(off bool) (gadgetHost, error)
	}{
		{"bracha", 3, func(off bool) (gadgetHost, error) {
			return core.New(core.Config{Me: me, Peers: peers, Spec: spec, Coin: coin.NewLocal(1),
				Instance: 3, DisableDecideGadget: off})
		}},
		{"benor", 0, func(off bool) (gadgetHost, error) {
			return baseline.New(core.Config{Me: me, Peers: peers, Spec: spec, Coin: coin.NewLocal(1),
				DisableDecideGadget: off})
		}},
	}
	for _, h := range hosts {
		for _, tc := range cases {
			t.Run(h.name+"/"+tc.name, func(t *testing.T) {
				node, err := h.build(tc.off)
				if err != nil {
					t.Fatal(err)
				}
				node.Start()
				for i, vote := range tc.script {
					p := &types.DecidePayload{V: vote.v, Instance: h.instance}
					if vote.foreign {
						p.Instance = h.instance + 1
					}
					if vote.nilPay {
						p = nil
					}
					got := node.Deliver(types.Message{From: vote.from, To: me, Payload: p})
					var want []types.Message
					if vote.relay {
						want = types.Broadcast(me, peers, &types.DecidePayload{V: vote.v, Instance: h.instance})
					}
					if len(got) != 0 || len(want) != 0 {
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("vote %d (%+v): emitted %v, want %v", i, vote, render(got), render(want))
						}
					}
				}
				v, ok := node.Decided()
				wantRound := 0
				if tc.decided {
					wantRound = 1
				}
				if ok != tc.decided || v != tc.v || node.DecidedRound() != wantRound || node.Done() != tc.decided {
					t.Fatalf("decided=(%v,%v) round=%d done=%v, want (%v,%v) round=%d done=%v",
						v, ok, node.DecidedRound(), node.Done(), tc.v, tc.decided, wantRound, tc.decided)
				}
				if tc.decided {
					late := &types.DecidePayload{V: 1 - tc.v, Instance: h.instance}
					if out := node.Deliver(types.Message{From: me, To: me, Payload: late}); out != nil {
						t.Fatalf("halted node emitted %v", render(out))
					}
				}
			})
		}
	}
}

func render(msgs []types.Message) string {
	s := ""
	for _, m := range msgs {
		s += fmt.Sprintf("[%v→%v %+v]", m.From, m.To, m.Payload)
	}
	return s
}

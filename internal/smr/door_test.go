package smr

import (
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/types"
)

// TestNonPeerTrafficDropped: a process outside the peer set takes no part,
// so what it sends costs the replica no state and draws no answer. Its
// DECIDEs for future slots are not buffered, its dissemination SEND is not
// echoed, and its state-transfer request is not served.
func TestNonPeerTrafficDropped(t *testing.T) {
	const stranger, outsider = types.ProcessID(99), types.ProcessID(9)
	peers := types.Processes(4)
	rep, err := New(Config{
		Me: 1, Peers: peers, Spec: quorum.MustNew(4, 1),
		NewCoin: func(slot int) coin.Coin { return coin.NewLocal(int64(slot)) },
		Machine: NewKVMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for inst := 5; inst <= 1004; inst++ {
		rep.Deliver(types.Message{From: stranger, To: 1, Payload: &types.DecidePayload{V: types.One, Instance: inst}})
	}
	if got := len(rep.ord.pending); got != 0 {
		t.Errorf("a non-peer's DECIDEs left %d instances buffered, want none", got)
	}
	send := &types.RBCPayload{
		Phase: types.KindRBCSend,
		ID:    types.InstanceID{Sender: outsider, Tag: types.Tag{Seq: dissemNS}},
		Body:  "set x 1",
	}
	if out := rep.Deliver(types.Message{From: outsider, To: 1, Payload: send}); len(out) != 0 {
		t.Errorf("a non-peer's slot-0 SEND drew %d messages, want none", len(out))
	}

	// A replica that installed a certified cut holds its snapshot and serves
	// transfers, but not to a non-peer.
	honest, ok := buildCkptSMR(t, 4, 1, 8, 4, 17)[0].TransferPayload(true)
	if !ok {
		t.Fatal("the cluster certified no cut to transfer")
	}
	ahead, err := New(Config{
		Me: 4, Peers: peers, Spec: quorum.MustNew(4, 1),
		NewCoin:          func(slot int) coin.Coin { return coin.NewLocal(int64(slot)) },
		Machine:          NewKVMachine(),
		CheckpointEvery:  4,
		CheckpointSecret: []byte("test-cluster"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ahead.Deliver(types.Message{From: 1, To: 4, Payload: honest})
	if _, ok := ahead.TransferPayload(true); !ok || ahead.Transfers() != 1 {
		t.Fatalf("the replica installed %d transfers and holds no snapshot to serve", ahead.Transfers())
	}
	req := &types.CkptRequestPayload{Slot: 0, Nonce: 0}
	if out := ahead.Deliver(types.Message{From: stranger, To: 4, Payload: req}); len(out) != 0 {
		t.Errorf("a non-peer's transfer request drew %d messages (first %v), want none", len(out), out[0])
	}
}

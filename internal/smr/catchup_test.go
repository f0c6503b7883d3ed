package smr

import (
	"fmt"
	"testing"

	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/types"
)

// This file pins the catch-up path's retry rules: a transfer response that
// cannot help (stale or unverifiable) marks its responder for the rest of
// the catch-up epoch and re-requests from the next peer at once, and once
// every peer is marked the marks reset so the fallback stays live.

// catchUpRig is a four-replica cluster that committed 8 slots under a
// 4-slot checkpoint cadence, plus a fresh replica restarted in place of its
// last member and told of the certified cut by a bare certificate: lagging,
// with nothing installed.
type catchUpRig struct {
	victim *Replica
	honest *types.CkptCertPayload // a genuine full transfer response
	bad    *types.CkptCertPayload // the same with a snapshot that fails its digest
}

func newCatchUpRig(t *testing.T) catchUpRig {
	t.Helper()
	const n, every = 4, 4
	cluster := buildCkptSMR(t, n, 1, 8, every, 17)
	honest, ok := cluster[0].TransferPayload(true)
	if !ok || honest.Slot < every {
		t.Fatalf("cluster certified no cut to transfer (ok=%v)", ok)
	}
	bad := *honest
	bad.Snapshot += " "
	bare, _ := cluster[0].TransferPayload(false)

	peers := types.Processes(n)
	victim, err := New(Config{
		Me: peers[n-1], Peers: peers, Spec: quorum.MustNew(n, 1),
		NewCoin:          func(slot int) coin.Coin { return coin.NewLocal(int64(slot)) },
		Machine:          NewKVMachine(),
		CheckpointEvery:  every,
		CheckpointSecret: []byte("test-cluster"),
	})
	if err != nil {
		t.Fatal(err)
	}
	victim.Start()
	victim.Deliver(types.Message{From: peers[0], To: victim.ID(), Payload: bare})
	if !victim.cp.lagging(victim.Slot()) || victim.Transfers() != 0 {
		t.Fatalf("victim not left lagging: slot %d, transfers %d", victim.Slot(), victim.Transfers())
	}
	return catchUpRig{victim: victim, honest: honest, bad: &bad}
}

// answer delivers a transfer response from peer and returns the replica's
// requests among its output.
func (rig catchUpRig) answer(from types.ProcessID, p *types.CkptCertPayload) []types.Message {
	var reqs []types.Message
	for _, m := range rig.victim.Deliver(types.Message{From: from, To: rig.victim.ID(), Payload: p}) {
		if _, ok := m.Payload.(*types.CkptRequestPayload); ok {
			reqs = append(reqs, m)
		}
	}
	return reqs
}

// TestByzantineResponderRetriedOncePerEpoch: a responder that answers every
// request badly earns one reactive re-request per catch-up epoch, however
// often it answers.
func TestByzantineResponderRetriedOncePerEpoch(t *testing.T) {
	rig := newCatchUpRig(t)
	const byz = types.ProcessID(2)
	reqs := 0
	for range 6 {
		reqs += len(rig.answer(byz, rig.bad))
	}
	if got := rig.victim.TransferRetries(); got != 1 || reqs != 1 {
		t.Errorf("6 bad answers from one responder: %d retries, %d requests; want 1 and 1", got, reqs)
	}
	if got := rig.victim.UnverifiableResponses(); got != 6 {
		t.Errorf("counted %d unverifiable responses, want 6", got)
	}
}

// TestAllBadRespondersResetAndInstall: after every peer has answered badly
// (the requests those answers prompted are lost), one more bad answer still
// prompts a request, and the honest peer it reaches brings the replica to
// the certified cut.
func TestAllBadRespondersResetAndInstall(t *testing.T) {
	rig := newCatchUpRig(t)
	const byz = types.ProcessID(2)
	for _, p := range rig.victim.cp.others {
		rig.answer(p, rig.bad)
	}
	if got := rig.victim.TransferRetries(); got != len(rig.victim.cp.others) {
		t.Fatalf("%d retries after one bad answer from each peer, want %d", got, len(rig.victim.cp.others))
	}
	// Route requests until none is left: the Byzantine peer answers badly,
	// the others honestly.
	reqs := rig.answer(byz, rig.bad)
	for steps := 0; len(reqs) > 0 && steps < 10; steps++ {
		to := reqs[0].To
		reqs = reqs[1:]
		if to == byz {
			reqs = append(reqs, rig.answer(to, rig.bad)...)
		} else {
			reqs = append(reqs, rig.answer(to, rig.honest)...)
		}
	}
	if rig.victim.Transfers() != 1 || rig.victim.Slot() != rig.honest.Slot {
		t.Errorf("victim at slot %d with %d transfers, want slot %d after one transfer",
			rig.victim.Slot(), rig.victim.Transfers(), rig.honest.Slot)
	}
}

// TestBareCutKeepsTransferredSnapshot: a replica that certified the cut
// from a bare certificate and then installs the honest transfer of the same
// cut holds its snapshot, so it can serve the cut in turn.
func TestBareCutKeepsTransferredSnapshot(t *testing.T) {
	rig := newCatchUpRig(t)
	rig.answer(types.ProcessID(1), rig.honest)
	if rig.victim.Transfers() != 1 {
		t.Fatalf("%d transfers, want 1", rig.victim.Transfers())
	}
	p, ok := rig.victim.TransferPayload(true)
	if !ok || p.Slot != rig.honest.Slot || p.Snapshot != rig.honest.Snapshot {
		t.Errorf("after installing cut %d: transfer payload ok=%v, want the installed snapshot", rig.honest.Slot, ok)
	}
}

// TestDroppedLogEntriesCleared: truncation at a certified cut and a state
// transfer's install both zero the log's backing array past its new length.
// A stale entry left there would keep its batch body alive (an entry's
// command is a substring of the body) until an append overwrote it.
func TestDroppedLogEntriesCleared(t *testing.T) {
	rig := newCatchUpRig(t)
	r := rig.victim
	fill := func(from, to int) {
		r.log.entries = r.log.entries[:0]
		for s := from; s < to; s++ {
			for i := range 2 {
				r.log.entries = append(r.log.entries, Entry{Slot: s, Index: i, Proposer: 1, Command: fmt.Sprintf("set k%d-%d v", s, i)})
			}
		}
	}
	stale := func(after string) {
		for i, e := range r.log.entries[len(r.log.entries):cap(r.log.entries)] {
			if e != (Entry{}) {
				t.Errorf("after %s: log[%d], past length %d, still holds %+v", after, len(r.log.entries)+i, len(r.log.entries), e)
			}
		}
	}
	fill(0, 4)
	r.log.truncate(2)
	if len(r.log.entries) != 4 || r.log.entries[0].Slot != 2 {
		t.Fatalf("truncateLog(2) kept %d entries from slot %d, want 4 from slot 2", len(r.log.entries), r.log.entries[0].Slot)
	}
	stale("truncateLog")
	fill(2, 6)
	rig.answer(types.ProcessID(1), rig.honest)
	if r.Transfers() != 1 || len(r.log.entries) != 0 {
		t.Fatalf("install: %d transfers, %d log entries; want 1 and 0", r.Transfers(), len(r.log.entries))
	}
	stale("install")
}

package smr

import (
	"reflect"
	"testing"

	"repro/internal/types"
)

// This file pins the checkpoint plane's rejection behavior against
// malformed payload *shapes*: every hostile shape must be rejected
// silently — no protocol-state change, no output traffic — and the cheap
// structural rejections (length checks that fire before any MAC is even
// computed) must stay allocation-free, so a flood of garbage votes or
// certificates costs the receiver nothing but the delivery itself.

// ckptStateFingerprint captures every piece of replica state a rejected
// payload must leave untouched.
type ckptStateFingerprint struct {
	slot         int
	base         int
	logLen       int
	logDigest    uint64
	stateDigest  uint64
	certifiedCut int
	pendingCuts  int
	log          []Entry
}

func fingerprint(rep *Replica) ckptStateFingerprint {
	sd, _ := rep.StateDigest()
	return ckptStateFingerprint{
		slot:         rep.Slot(),
		base:         rep.Base(),
		logLen:       rep.LogLen(),
		logDigest:    rep.LogDigest(),
		stateDigest:  sd,
		certifiedCut: rep.CertifiedCut(),
		pendingCuts:  rep.PendingCuts(),
		log:          rep.LogSince(0),
	}
}

// malformedCkptPayloads is the hostile shape battery. structural == true
// marks the shapes rejected by pure length/count checks — those must also
// be allocation-free.
func malformedCkptPayloads(n int) []struct {
	name       string
	payload    types.Payload
	structural bool
} {
	quorumVoters := func(k int) []types.ProcessID {
		v := make([]types.ProcessID, k)
		for i := range v {
			v[i] = types.ProcessID(i + 1)
		}
		return v
	}
	vecs := func(k, entries int) [][]string {
		m := make([][]string, k)
		for i := range m {
			row := make([]string, entries)
			for j := range row {
				row[j] = "garbage-mac"
			}
			m[i] = row
		}
		return m
	}
	return []struct {
		name       string
		payload    types.Payload
		structural bool
	}{
		{
			name:       "vote/short-mac-vector",
			payload:    &types.CkptVotePayload{Slot: 1 << 20, StateDigest: 1, LogDigest: 2, MACs: []string{"x", "y"}},
			structural: true,
		},
		{
			name:       "vote/nil-mac-vector",
			payload:    &types.CkptVotePayload{Slot: 1 << 20, StateDigest: 1, LogDigest: 2},
			structural: true,
		},
		{
			name:       "vote/oversized-mac-vector",
			payload:    &types.CkptVotePayload{Slot: 1 << 20, StateDigest: 1, LogDigest: 2, MACs: vecs(1, n+3)[0]},
			structural: true,
		},
		{
			name: "vote/garbage-macs",
			// Right length, hostile bytes: rejected by the HMAC check itself
			// (this path hashes, so it is exempt from the 0-alloc gate).
			payload: &types.CkptVotePayload{Slot: 1 << 20, StateDigest: 1, LogDigest: 2, MACs: vecs(1, n)[0]},
		},
		{
			name: "cert/voter-mac-count-mismatch",
			payload: &types.CkptCertPayload{
				Slot: 1 << 20, StateDigest: 1, LogDigest: 2,
				Voters: quorumVoters(3), VoteMACs: vecs(2, n),
			},
			structural: true,
		},
		{
			name: "cert/sub-quorum",
			payload: &types.CkptCertPayload{
				Slot: 1 << 20, StateDigest: 1, LogDigest: 2,
				Voters: quorumVoters(2), VoteMACs: vecs(2, n),
			},
			structural: true,
		},
		{
			name: "cert/empty",
			payload: &types.CkptCertPayload{
				Slot: 1 << 20, StateDigest: 1, LogDigest: 2,
			},
			structural: true,
		},
		{
			name: "cert/snapshot-without-quorum",
			// A snapshot riding a voteless certificate: the quorum check
			// rejects it before the snapshot is even digested.
			payload: &types.CkptCertPayload{
				Slot: 1 << 20, StateDigest: 1, LogDigest: 2,
				Snapshot: "#1\npoisoned\n",
			},
			structural: true,
		},
		{
			name: "cert/duplicate-voters",
			// Shape-valid counts, duplicated identity: caught by the
			// distinct-voter scan (allocates its seen-set, so not 0-alloc).
			payload: &types.CkptCertPayload{
				Slot: 1 << 20, StateDigest: 1, LogDigest: 2,
				Voters:   []types.ProcessID{1, 1, 2},
				VoteMACs: vecs(3, n),
			},
		},
		{
			name: "cert/garbage-quorum",
			payload: &types.CkptCertPayload{
				Slot: 1 << 20, StateDigest: 1, LogDigest: 2,
				Voters: quorumVoters(3), VoteMACs: vecs(3, n),
			},
		},
	}
}

// TestMalformedCkptPayloadsRejectedSilently: every hostile shape leaves the
// receiver byte-identical — same slot, same log, same digests, same
// certified cut, same pending-vote table — and produces no output traffic.
func TestMalformedCkptPayloadsRejectedSilently(t *testing.T) {
	const n = 4
	replicas := buildCkptSMR(t, n, 1, 8, 4, 11)
	rep := replicas[0]
	from := replicas[1].ID()
	for _, tc := range malformedCkptPayloads(n) {
		t.Run(tc.name, func(t *testing.T) {
			before := fingerprint(rep)
			out := rep.Deliver(types.Message{From: from, To: rep.ID(), Payload: tc.payload})
			if len(out) != 0 {
				t.Errorf("rejection produced %d output messages: %v", len(out), out)
			}
			after := fingerprint(rep)
			if !reflect.DeepEqual(before, after) {
				t.Errorf("state changed across rejection:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

// TestMalformedCkptPayloadsRejectAllocFree: the structural rejections —
// wrong MAC-vector length, voter/MAC count mismatch, sub-quorum — fire on
// length checks alone and must not allocate, so shape spam cannot pressure
// the receiver's allocator. (AllocsPerRun's warm-up call absorbs any lazy
// first-use initialization.)
func TestMalformedCkptPayloadsRejectAllocFree(t *testing.T) {
	const n = 4
	replicas := buildCkptSMR(t, n, 1, 8, 4, 13)
	rep := replicas[0]
	from := replicas[1].ID()
	for _, tc := range malformedCkptPayloads(n) {
		if !tc.structural {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			m := types.Message{From: from, To: rep.ID(), Payload: tc.payload}
			if allocs := testing.AllocsPerRun(100, func() {
				if out := rep.Deliver(m); len(out) != 0 {
					t.Fatalf("rejection produced output: %v", out)
				}
			}); allocs != 0 {
				t.Errorf("structural rejection allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

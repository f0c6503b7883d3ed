package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

const testSecret = "cluster-secret"

var testPeers = types.Processes(4)

// authorityOf returns process p's endpoint of the vote-authentication
// scheme (each process holds its own keyring slice).
func authorityOf(p types.ProcessID) *Authority {
	return NewAuthority([]byte(testSecret), p, testPeers)
}

// vote builds voter's signed vote payload, exactly as the voter itself
// would (its own authority signs the full vector).
func vote(voter types.ProcessID, c Checkpoint) *types.CkptVotePayload {
	return &types.CkptVotePayload{
		Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest,
		MACs: authorityOf(voter).SignVector(c),
	}
}

func newTestTracker(t testing.TB, me types.ProcessID) *Tracker {
	t.Helper()
	tr, err := NewTracker(me, quorum.MustNew(4, 1), authorityOf(me), 8)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func noteVote(t *testing.T, tr *Tracker, voter types.ProcessID, c Checkpoint) (Certificate, bool) {
	t.Helper()
	cert, advanced, verified := tr.NoteVote(voter, vote(voter, c))
	if !verified {
		t.Fatalf("genuine vote by %v did not verify", voter)
	}
	return cert, advanced
}

func TestVoteQuorumCertifies(t *testing.T) {
	tr := newTestTracker(t, 1)
	c := Checkpoint{Slot: 8, StateDigest: 11, LogDigest: 22}
	if _, adv := noteVote(t, tr, 2, c); adv {
		t.Fatal("one vote certified")
	}
	if _, adv := noteVote(t, tr, 3, c); adv {
		t.Fatal("two votes certified")
	}
	cert, adv := noteVote(t, tr, 4, c)
	if !adv {
		t.Fatal("2f+1 votes did not certify")
	}
	if cert.Slot != 8 || len(cert.Voters) != 3 {
		t.Fatalf("cert = %+v", cert)
	}
	// The assembled certificate verifies at every cluster member: the MAC
	// vectors travel whole.
	for _, p := range testPeers {
		if !authorityOf(p).VerifyCert(cert, quorum.MustNew(4, 1)) {
			t.Fatalf("assembled certificate does not verify at %v", p)
		}
	}
	if got, ok := tr.Latest(); !ok || got.Slot != 8 {
		t.Fatalf("Latest = %+v, %v", got, ok)
	}
}

func TestForgedAndDuplicateVotesIgnored(t *testing.T) {
	tr := newTestTracker(t, 1)
	c := Checkpoint{Slot: 8, StateDigest: 1, LogDigest: 2}
	// A vector minted under the wrong cluster secret is rejected.
	forged := &types.CkptVotePayload{
		Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest,
		MACs: NewAuthority([]byte("wrong"), 2, testPeers).SignVector(c),
	}
	if _, adv, verified := tr.NoteVote(2, forged); adv || verified {
		t.Fatal("forged vote accepted")
	}
	// A vote attributed to the wrong voter is rejected: the MAC entries
	// were signed under voter 2's link keys, not voter 3's.
	stolen := vote(2, c)
	if _, adv, verified := tr.NoteVote(3, stolen); adv || verified {
		t.Fatal("reattributed vote accepted")
	}
	// A Byzantine relay cannot fabricate a correct voter's vote: it holds
	// only its own links' keys, so a vector it signs itself fails at
	// receiver 1 when attributed to voter 2.
	fabricated := &types.CkptVotePayload{
		Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest,
		MACs: authorityOf(4).SignVector(c),
	}
	if _, adv, verified := tr.NoteVote(2, fabricated); adv || verified {
		t.Fatal("a relay's self-signed vector passed as another voter's")
	}
	// Duplicates never double-count: three copies of one voter's vote plus
	// one other voter stay below quorum.
	tr.NoteVote(2, vote(2, c))
	tr.NoteVote(2, vote(2, c))
	tr.NoteVote(2, vote(2, c))
	if _, adv, _ := tr.NoteVote(3, vote(3, c)); adv {
		t.Fatal("duplicate votes reached quorum")
	}
}

// TestCheckpointNonPeerVoterRefused: only peers vote. A process outside
// 1..n keyed from the cluster secret signs a well-formed vector, but its
// vote verifies nowhere and counts toward no quorum, and a certificate
// naming it is refused even when the peers in it would make 2f+1 with it.
func TestCheckpointNonPeerVoterRefused(t *testing.T) {
	c := Checkpoint{Slot: 8, StateDigest: 5, LogDigest: 6}
	outsider := types.ProcessID(len(testPeers) + 1)
	outsiderVote := &types.CkptVotePayload{
		Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest,
		MACs: NewAuthority([]byte(testSecret), outsider, testPeers).SignVector(c),
	}
	tr := newTestTracker(t, 1)
	noteVote(t, tr, 2, c)
	noteVote(t, tr, 3, c)
	if _, adv, verified := tr.NoteVote(outsider, outsiderVote); adv || verified {
		t.Fatalf("non-peer %v's vote: advanced %v, verified %v", outsider, adv, verified)
	}
	if _, ok := tr.Latest(); ok {
		t.Fatal("two peers and a non-peer certified the cut")
	}

	cert := Certificate{
		Checkpoint: c,
		Voters:     []types.ProcessID{2, 3, outsider},
		VoteMACs:   [][]string{authorityOf(2).SignVector(c), authorityOf(3).SignVector(c), outsiderVote.MACs},
	}
	spec := quorum.MustNew(4, 1)
	for _, p := range testPeers {
		if authorityOf(p).VerifyCert(cert, spec) {
			t.Fatalf("certificate with non-peer voter %v verified at %v", outsider, p)
		}
	}
	// The same certificate with a third peer in the outsider's place verifies.
	cert.Voters[2], cert.VoteMACs[2] = 4, authorityOf(4).SignVector(c)
	if !authorityOf(1).VerifyCert(cert, spec) {
		t.Fatal("three peers' certificate refused")
	}
}

// TestCertVotersAscending: votes folded in descending peer order certify
// with Voters ascending, and each VoteMACs[i] is Voters[i]'s own vector.
func TestCertVotersAscending(t *testing.T) {
	spec := quorum.MustNew(7, 2)
	peers := types.Processes(7)
	auth := func(p types.ProcessID) *Authority { return NewAuthority([]byte(testSecret), p, peers) }
	tr, err := NewTracker(1, spec, auth(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	c := Checkpoint{Slot: 8, StateDigest: 7, LogDigest: 8}
	var cert Certificate
	for p := types.ProcessID(7); p >= 3; p-- {
		var verified bool
		cert, _, verified = tr.NoteVote(p, &types.CkptVotePayload{
			Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest, MACs: auth(p).SignVector(c),
		})
		if !verified {
			t.Fatalf("genuine vote by %v did not verify", p)
		}
	}
	if want := []types.ProcessID{3, 4, 5, 6, 7}; !slices.Equal(cert.Voters, want) {
		t.Fatalf("Voters = %v, want %v", cert.Voters, want)
	}
	for i, voter := range cert.Voters {
		if !slices.Equal(cert.VoteMACs[i], auth(voter).SignVector(c)) {
			t.Errorf("VoteMACs[%d] is not voter %v's vector", i, voter)
		}
	}
}

func TestEquivocatingVoterCannotSplitCut(t *testing.T) {
	tr := newTestTracker(t, 1)
	good := Checkpoint{Slot: 8, StateDigest: 1, LogDigest: 2}
	bad := Checkpoint{Slot: 8, StateDigest: 9, LogDigest: 9}
	// Voter 2 equivocates; its first vote wins, the second is dropped, and
	// only votes matching the full digest pair count toward the quorum.
	noteVote(t, tr, 2, bad)
	tr.NoteVote(2, vote(2, good))
	noteVote(t, tr, 3, good)
	if _, adv := noteVote(t, tr, 4, good); adv {
		t.Fatal("quorum formed with a mismatched vote in it")
	}
	// A third matching voter still certifies the good checkpoint.
	if _, adv := noteVote(t, tr, 1, good); !adv {
		t.Fatal("matching quorum failed to certify")
	}
}

func TestOffCadenceAndStaleVotesRejected(t *testing.T) {
	tr := newTestTracker(t, 1)
	for _, slot := range []int{3, 12, -8, 0} {
		c := Checkpoint{Slot: slot}
		if _, adv, _ := tr.NoteVote(2, vote(2, c)); adv {
			t.Fatalf("off-cadence slot %d accepted", slot)
		}
	}
	if tr.PendingCuts() != 0 {
		t.Fatalf("off-cadence votes retained: %d cuts", tr.PendingCuts())
	}
	// Certify cut 8, then votes at or below it are dead.
	c8 := Checkpoint{Slot: 8, StateDigest: 5, LogDigest: 6}
	for _, v := range []types.ProcessID{2, 3, 4} {
		tr.NoteVote(v, vote(v, c8))
	}
	if _, adv, _ := tr.NoteVote(2, vote(2, c8)); adv {
		t.Fatal("re-vote at certified cut accepted")
	}
	if tr.PendingCuts() != 0 {
		t.Fatalf("stale votes retained: %d cuts", tr.PendingCuts())
	}
}

func TestFarFutureVoteSpamBounded(t *testing.T) {
	tr := newTestTracker(t, 1)
	// A Byzantine voter mints votes for thousands of distinct future cuts
	// (self-signed, so they verify); the table stays capped and low cuts
	// stay trackable.
	for i := 1; i <= 2_000; i++ {
		c := Checkpoint{Slot: 8 * i * 100}
		tr.NoteVote(4, vote(4, c))
	}
	if got := tr.PendingCuts(); got > DefaultMaxPendingCuts {
		t.Fatalf("vote table grew to %d cuts, cap %d", got, DefaultMaxPendingCuts)
	}
	// Honest certification at a low cut still proceeds: the spam evicts
	// itself (largest first), never the lowest pending cuts.
	c := Checkpoint{Slot: 8, StateDigest: 1, LogDigest: 1}
	noteVote(t, tr, 2, c)
	noteVote(t, tr, 3, c)
	if _, adv := noteVote(t, tr, 1, c); !adv {
		t.Fatal("spam displaced an honest low cut")
	}
}

func TestCertPayloadRoundTripAndSnapshotVerification(t *testing.T) {
	serving := newTestTracker(t, 1)
	snapshot := "k1=v1\nk2=v2\n"
	c := Checkpoint{Slot: 8, StateDigest: Digest(snapshot), LogDigest: 77}
	vp, _, _ := serving.RecordLocal(c, snapshot)
	if _, _, verified := newTestTracker(t, 2).NoteVote(1, vp); !verified {
		t.Fatal("RecordLocal vote does not verify at a peer")
	}
	for _, v := range []types.ProcessID{2, 3} {
		serving.NoteVote(v, vote(v, c))
	}
	if _, ok := serving.Latest(); !ok {
		t.Fatal("quorum incl. local vote did not certify")
	}
	full, ok := serving.CertPayload(true)
	if !ok || full.Snapshot != snapshot {
		t.Fatalf("CertPayload(true) = %+v, %v", full, ok)
	}

	receiving := newTestTracker(t, 4)
	cert, ok := receiving.VerifyCertPayload(full)
	if !ok {
		t.Fatal("valid cert payload rejected")
	}
	// Tampered snapshots and tampered digests both fail verification.
	bad := *full
	bad.Snapshot = "k1=evil\n"
	if _, ok := receiving.VerifyCertPayload(&bad); ok {
		t.Fatal("tampered snapshot accepted")
	}
	bad = *full
	bad.LogDigest++
	if _, ok := receiving.VerifyCertPayload(&bad); ok {
		t.Fatal("tampered log digest accepted")
	}
	bad = *full
	bad.Voters = bad.Voters[:2]
	bad.VoteMACs = bad.VoteMACs[:2]
	if _, ok := receiving.VerifyCertPayload(&bad); ok {
		t.Fatal("sub-quorum certificate accepted")
	}
	bad = *full
	// Each entry is its voter's genuine vector, so only the dedup refuses it.
	bad.Voters = []types.ProcessID{bad.Voters[0], bad.Voters[0], bad.Voters[1]}
	bad.VoteMACs = [][]string{bad.VoteMACs[0], bad.VoteMACs[0], bad.VoteMACs[1]}
	if _, ok := receiving.VerifyCertPayload(&bad); ok {
		t.Fatal("duplicate-voter certificate accepted")
	}

	if !receiving.Adopt(cert, full.Snapshot) {
		t.Fatal("Adopt rejected a fresh certificate")
	}
	if got, okL := receiving.Latest(); !okL || got.Slot != 8 {
		t.Fatalf("adopted Latest = %+v, %v", got, okL)
	}
	// Having adopted the snapshot and the whole vectors, the receiver can
	// serve the certificate onward — and it verifies at a third replica.
	relayed, ok := receiving.CertPayload(true)
	if !ok || relayed.Snapshot != snapshot {
		t.Fatal("adopted snapshot not servable")
	}
	if _, ok := newTestTracker(t, 3).VerifyCertPayload(relayed); !ok {
		t.Fatal("relayed certificate does not verify at a third replica")
	}
}

func TestPoisonedVectorCannotForgeQuorum(t *testing.T) {
	// A Byzantine voter's vector may verify at the assembling replica and
	// nowhere else; receivers count only entries valid for themselves, so
	// a certificate whose quorum leans on poisoned vectors is rejected
	// rather than installed.
	c := Checkpoint{Slot: 8, StateDigest: 3, LogDigest: 4}
	poisoned := authorityOf(4).SignVector(c)
	poisoned[0] = "garbage" // entry for receiver 1 corrupted
	cert := Certificate{
		Checkpoint: c,
		Voters:     []types.ProcessID{2, 3, 4},
		VoteMACs: [][]string{
			authorityOf(2).SignVector(c),
			authorityOf(3).SignVector(c),
			poisoned,
		},
	}
	spec := quorum.MustNew(4, 1)
	if authorityOf(1).VerifyCert(cert, spec) {
		t.Fatal("receiver 1 accepted a quorum leaning on a poisoned entry")
	}
	// The same certificate verifies at receiver 2, whose entries are fine —
	// the documented symmetric-MAC tradeoff (delay, never unsafe install).
	if !authorityOf(2).VerifyCert(cert, spec) {
		t.Fatal("receiver 2 rejected a certificate valid for it")
	}
}

func TestShouldServeDedupsPerRequesterAndCut(t *testing.T) {
	tr := newTestTracker(t, 1)
	c := Checkpoint{Slot: 8, StateDigest: 1, LogDigest: 1}
	tr.RecordLocal(c, "snap")
	for _, v := range []types.ProcessID{2, 3} {
		tr.NoteVote(v, vote(v, c))
	}
	if !tr.ShouldServe(4, 0) {
		t.Fatal("first request refused")
	}
	if tr.ShouldServe(4, 0) {
		t.Fatal("replayed nonce served twice at one cut")
	}
	if !tr.ShouldServe(3, 0) {
		t.Fatal("distinct requester refused")
	}
	// A new cut resets the dedup for the new cut only.
	c2 := Checkpoint{Slot: 16, StateDigest: 2, LogDigest: 2}
	tr.RecordLocal(c2, "snap2")
	for _, v := range []types.ProcessID{2, 3} {
		tr.NoteVote(v, vote(v, c2))
	}
	if !tr.ShouldServe(4, 0) {
		t.Fatal("request at the new cut refused")
	}
}

func TestShouldServeRetryNoncesAndCap(t *testing.T) {
	tr := newTestTracker(t, 1)
	c := Checkpoint{Slot: 8, StateDigest: 1, LogDigest: 1}
	tr.RecordLocal(c, "snap")
	for _, v := range []types.ProcessID{2, 3} {
		tr.NoteVote(v, vote(v, c))
	}
	if !tr.ShouldServe(4, 5) {
		t.Fatal("first request refused")
	}
	if tr.ShouldServe(4, 5) {
		t.Fatal("replayed nonce re-served")
	}
	if tr.ShouldServe(4, 3) {
		t.Fatal("older nonce re-served")
	}
	if !tr.ShouldServe(4, 6) {
		t.Fatal("genuine retry (higher nonce) refused")
	}
	if !tr.ShouldServe(4, 9) {
		t.Fatal("third response (under the cap) refused")
	}
	// The amplification cap: however many fresh nonces the requester burns,
	// responses per (requester, cut) stop at maxServesPerCut.
	for nonce := 10; nonce < 30; nonce++ {
		if tr.ShouldServe(4, nonce) {
			t.Fatalf("nonce %d served beyond the per-cut cap", nonce)
		}
	}
	// Another requester is unaffected by 4's burn.
	if !tr.ShouldServe(3, 0) {
		t.Fatal("distinct requester refused after another's cap")
	}
}

func TestFoldEntryChainIsInjectiveAcrossBoundaries(t *testing.T) {
	// Folding ("ab", "c") and ("a", "bc") must differ: the length prefix in
	// FoldEntry keeps the chain injective across command boundaries.
	h1 := FoldEntry(FoldEntry(InitialLogDigest, 0, 1, "ab"), 1, 2, "c")
	h2 := FoldEntry(FoldEntry(InitialLogDigest, 0, 1, "a"), 1, 2, "bc")
	if h1 == h2 {
		t.Fatal("chain digest collided across command boundaries")
	}
	if FoldEntry(InitialLogDigest, 0, 1, "x") == FoldEntry(InitialLogDigest, 1, 1, "x") {
		t.Fatal("chain digest ignores slot")
	}
	if FoldEntry(InitialLogDigest, 0, 1, "x") == FoldEntry(InitialLogDigest, 0, 2, "x") {
		t.Fatal("chain digest ignores proposer")
	}
}

func TestTrackerConfigValidation(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	if _, err := NewTracker(1, spec, nil, 8); err == nil {
		t.Error("nil authority accepted")
	}
	if _, err := NewTracker(1, spec, authorityOf(1), 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestSnapshotRetentionBounded(t *testing.T) {
	tr := newTestTracker(t, 1)
	for cut := 8; cut <= 800; cut += 8 {
		c := Checkpoint{Slot: cut, StateDigest: uint64(cut), LogDigest: uint64(cut)}
		tr.RecordLocal(c, fmt.Sprintf("snap-%d", cut))
		for _, v := range []types.ProcessID{2, 3} {
			tr.NoteVote(v, vote(v, c))
		}
	}
	if got := len(tr.snapshots); got != 1 {
		t.Fatalf("retained %d snapshots after 100 certified cuts, want 1", got)
	}
	if got := tr.PendingCuts(); got != 0 {
		t.Fatalf("retained %d pending cuts, want 0", got)
	}
}

func TestPendingCutCapConfigurable(t *testing.T) {
	tr := newTestTracker(t, 1)
	tr.SetMaxPendingCuts(4)
	if got := tr.maxPending; got != 4 {
		t.Fatalf("cap = %d after SetMaxPendingCuts(4)", got)
	}
	// Out-of-range overrides are ignored: a tracker must always be able to
	// hold at least the cut it is certifying.
	tr.SetMaxPendingCuts(0)
	tr.SetMaxPendingCuts(-3)
	if got := tr.maxPending; got != 4 {
		t.Fatalf("cap = %d after invalid overrides, want 4", got)
	}
	// Spam far-future cuts well past the tightened cap.
	for i := 1; i <= 200; i++ {
		tr.NoteVote(4, vote(4, Checkpoint{Slot: 8 * (i + 10)}))
	}
	if got := tr.PendingCuts(); got > 4 {
		t.Fatalf("vote table grew to %d cuts under cap 4", got)
	}
	// Honest certification at the lowest cut still proceeds: eviction is
	// largest-first, so spam displaces spam, never the honest cut.
	c := Checkpoint{Slot: 8, StateDigest: 1, LogDigest: 1}
	noteVote(t, tr, 2, c)
	noteVote(t, tr, 3, c)
	if _, adv := noteVote(t, tr, 1, c); !adv {
		t.Fatal("spam displaced the honest cut under a tight cap")
	}
}

// TestAuthorityAllocations: signing a vote allocates only the vector and its
// n MAC strings, and verifying an entry allocates nothing — the keyring's
// link MACs reuse their keyed states.
func TestAuthorityAllocations(t *testing.T) {
	c := Checkpoint{Slot: 8, StateDigest: 0xabc, LogDigest: 0xdef}
	signer, verifier := authorityOf(2), authorityOf(3)
	macs := signer.SignVector(c)
	if allocs, want := testing.AllocsPerRun(100, func() { signer.SignVector(c) }), float64(len(testPeers)+1); allocs != want {
		t.Errorf("SignVector cost %.1f allocs, want %.0f", allocs, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if !verifier.VerifyEntry(2, c, macs) {
			t.Fatal("genuine vote refused")
		}
	}); allocs != 0 {
		t.Errorf("VerifyEntry cost %.1f allocs, want 0", allocs)
	}
}

// TestDigestStreams holds Digest to the first eight bytes of SHA-256 over
// the whole snapshot at lengths around its streaming buffer (empty, one
// byte, one short of a chunk, a chunk, one past, many chunks plus a tail),
// and to no allocation: the snapshot is hashed where it lies, never copied.
func TestDigestStreams(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, digestChunk - 1, digestChunk, digestChunk + 1, 300*digestChunk + 17} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + i>>8)
		}
		s := string(b)
		sum := sha256.Sum256(b)
		if got, want := Digest(s), binary.BigEndian.Uint64(sum[:8]); got != want {
			t.Fatalf("Digest of %d bytes = %#x, want %#x", n, got, want)
		}
		if allocs := testing.AllocsPerRun(5, func() { Digest(s) }); allocs != 0 {
			t.Errorf("Digest of %d bytes: %.0f allocations, want 0", n, allocs)
		}
	}
}

// Package ckpt is the protocol-level checkpoint and state-transfer subsystem
// layered on the replicated log (internal/smr). It is what lets an infinite
// execution run in bounded memory: per-round pruning bounds every
// *per-round* retainer, but the residue it deliberately keeps — compact RBC
// delivered records, per-round justification digests, per-slot coin
// dealers — still grows linearly with slots committed. Checkpointing retires
// that residue at quorum-certified cuts, the same shape production
// asynchronous BFT systems use (PBFT's stable checkpoints, PARSEC's
// stable-block garbage collection, the vote-based checkpoint construction of
// Xu et al. 2024):
//
//	every Interval slots, a replica hashes its application state and log
//	frontier into a Checkpoint{Slot, StateDigest, LogDigest}, signs a vote
//	for it, and broadcasts the vote;
//
//	2f+1 votes on the same checkpoint form a Certificate — proof that the
//	log prefix below the cut and the state it produces are settled, however
//	asynchronous the network is (two certificates at one cut would need a
//	correct double-voter, which does not exist);
//
//	a certified checkpoint becomes the new log base: everything below the
//	cut — log entries, RBC digest records, justification digests, dealer
//	sharings — is released, because any process that still needs the prefix
//	can be served the certificate plus a snapshot instead of a replay.
//
// State transfer is the catch-up path that makes the release safe: a replica
// that lost messages (restarted) or lagged more than an interval behind the
// frontier requests the latest certificate and snapshot from its peers,
// verifies the snapshot against the certified StateDigest, installs it as
// its new log base, and rejoins live slots. Nothing uncertified is ever
// installed.
//
// Vote authentication rides the existing auth layer's pairwise link keys,
// PBFT-style: a vote carries a *MAC vector* — one entry per receiver, each
// computed under the symmetric key of the (voter, receiver) link — binding
// (voter, slot, state digest, log digest). A Byzantine replica holds only
// the keys on its own links, so it can sign its own votes (which it is
// entitled to) but cannot fabricate a correct voter's entry for a correct
// receiver. Point-to-point authentication alone would not suffice, because
// certificates are *transferable*: a replica verifies votes it never
// received first-hand, relayed inside a certificate by an untrusted peer —
// each receiver checks its own entry of every relayed vector. The
// symmetric-MAC tradeoff is PBFT's: a Byzantine *voter* can craft a vector
// whose entries verify at some receivers and not others, which can delay a
// specific replica's state transfer until a later cut certifies from
// correct votes, but can never make anyone install an uncertified state.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"

	"repro/internal/auth"
	"repro/internal/quorum"
	"repro/internal/types"
)

// Checkpoint is one cut of the replicated log: slots below Slot are covered.
// StateDigest fingerprints the application state after applying every
// committed command below the cut, LogDigest is the chained digest of the
// committed entries themselves (see FoldEntry).
type Checkpoint struct {
	Slot        int
	StateDigest uint64
	LogDigest   uint64
}

// Certificate is a checkpoint plus the quorum of votes that certifies it.
// Voters and VoteMACs are index-aligned: VoteMACs[i] is voter i's full MAC
// vector (one entry per cluster member), so the certificate stays
// verifiable — and re-servable — at every receiver. A valid certificate
// carries at least 2f+1 distinct voters whose entries for the verifying
// receiver check out.
type Certificate struct {
	Checkpoint
	Voters   []types.ProcessID
	VoteMACs [][]string
}

// InitialLogDigest is the chain seed of an empty log.
//
// The two digest kinds in this package differ deliberately. The chained
// *log* digest is the repository's shared FNV-1a (types.FNV1aString and
// friends): it is never an acceptance gate for adversary-supplied bytes —
// entries fold in as they commit through consensus, and a transferred
// replica installs the certificate's digest as an opaque continuation
// value — so it only needs to make accidental divergence loud. The *state*
// digest is different: state transfer accepts a snapshot byte string from a
// single untrusted responder if and only if it digests to the
// quorum-certified value, which makes second-preimage resistance
// load-bearing — FNV-1a is algebraically
// invertible and would let a Byzantine responder craft a poisoned snapshot
// matching an honest digest. Digest therefore truncates SHA-256: finding a
// second preimage of a value fixed by honest voters costs ~2^64 work (the
// 64-bit truncation is the wire-format tradeoff; collisions do not help an
// attacker, because the digest is certified before any adversary input).
const InitialLogDigest uint64 = types.FNV1aInit

// Digest fingerprints a snapshot for certification and state-transfer
// verification: the first eight bytes of SHA-256 (see the discussion at
// InitialLogDigest for why this one digest must be cryptographic). The
// snapshot streams through a fixed buffer into one hash state, so hashing
// it costs no copy of its size.
func Digest(s string) uint64 {
	h := sha256.New()
	var buf [digestChunk]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0])[:8])
}

// digestChunk is the buffer Digest streams a snapshot through: a whole
// number of SHA-256 blocks.
const digestChunk = 4096

// FoldEntry extends a chained log digest by one committed entry. The chain
// starts at InitialLogDigest; after folding entries 0..s-1 in slot order the
// digest identifies the full committed history — which is how a replica
// whose in-memory log is a post-checkpoint suffix still proves its complete
// history: the certificate pins the prefix digest and the chain continues
// from it.
func FoldEntry(prev uint64, slot int, proposer types.ProcessID, command string) uint64 {
	h := types.FNV1aUint64(prev, uint64(slot))
	h = types.FNV1aUint64(h, uint64(int64(proposer)))
	h = types.FNV1aUint64(h, uint64(len(command)))
	return types.FNV1aString(h, command)
}

// Authority is one replica's endpoint of the vote-authentication scheme: a
// keyring of pairwise link keys (derived from the cluster master secret via
// internal/auth) plus the cluster membership, which fixes every vector's
// receiver indexing. A replica signs its votes as a full vector — one MAC per
// receiver — and verifies relayed votes by checking its own entry under the
// (voter, me) link key, which a Byzantine relay cannot know for correct
// pairs.
type Authority struct {
	keyring *auth.Keyring
	// members slots the vector: entry i belongs to the peer whose
	// quorum.Spec.Index is i. Peers are 1..n, so only n matters to it.
	members quorum.Spec
}

// NewAuthority builds the vote authenticator of process me among peers
// (1..n, as quorum.Spec.CheckPeers requires), from the cluster checkpoint
// secret (trusted setup: each process receives only its own links' keys).
func NewAuthority(secret []byte, me types.ProcessID, peers []types.ProcessID) *Authority {
	// With no peers New fails and members stays the zero Spec, whose Index
	// accepts nobody, so every entry is refused.
	members, _ := quorum.New(len(peers), 0)
	return &Authority{
		keyring: auth.NewKeyring(auth.DeriveKey(secret, "ckpt-vote"), me, peers...),
		members: members,
	}
}

// voteMsg is the byte string every entry of a vote's MAC vector covers:
// voter, slot, both digests. (The receiver is bound by the link key, not
// the message.)
func voteMsg(voter types.ProcessID, c Checkpoint) []byte {
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(int64(voter)))
	binary.BigEndian.PutUint64(buf[8:], uint64(int64(c.Slot)))
	binary.BigEndian.PutUint64(buf[16:], c.StateDigest)
	binary.BigEndian.PutUint64(buf[24:], c.LogDigest)
	return buf[:]
}

// SignVector MACs this replica's own vote for every receiver, in peer
// order.
func (a *Authority) SignVector(c Checkpoint) []string {
	msg := voteMsg(a.keyring.Owner(), c)
	macs := make([]string, a.members.N())
	for i := range macs {
		macs[i] = string(a.keyring.Sign(types.ProcessID(i+1), msg)) // the peer at index i
	}
	return macs
}

// VerifyEntry reports whether this replica's entry of a vote's MAC vector
// authenticates voter's vote for c. Only peers vote: a non-peer's vector is
// refused, though a process outside 1..n keyed from the cluster secret
// signs a well-formed one.
func (a *Authority) VerifyEntry(voter types.ProcessID, c Checkpoint, macs []string) bool {
	me, ok := a.members.Index(a.keyring.Owner())
	if _, peer := a.members.Index(voter); !ok || !peer || len(macs) != a.members.N() {
		return false
	}
	// The uniform path covers relayed copies of this replica's own votes
	// too: SignVector MACed the self entry under the (me, me) link key.
	return a.keyring.Check(voter, voteMsg(voter, c), []byte(macs[me])) == nil
}

// VerifyCert reports whether cert carries a quorum (spec.Decide() = 2f+1)
// of distinct voters whose entries verify *at this replica*. A Byzantine
// voter may have crafted a vector that verifies here and nowhere else —
// which is why receivers re-verify rather than trust a relayed "valid"
// claim, and why certificates keep every matching voter instead of a bare
// quorum.
func (a *Authority) VerifyCert(cert Certificate, spec quorum.Spec) bool {
	if len(cert.Voters) != len(cert.VoteMACs) || len(cert.Voters) < spec.Decide() {
		return false
	}
	seen := make([]bool, a.members.N())
	valid := 0
	for i, voter := range cert.Voters {
		j, ok := a.members.Index(voter)
		if !ok || seen[j] {
			return false // a non-peer or a repeated voter
		}
		seen[j] = true
		if a.VerifyEntry(voter, cert.Checkpoint, cert.VoteMACs[i]) {
			valid++
		}
	}
	return valid >= spec.Decide()
}

// DefaultMaxPendingCuts bounds the distinct uncertified cuts a tracker holds
// votes for (overridable per tracker via SetMaxPendingCuts). Honest clusters
// have at most a handful in flight (the spread between the slowest voter's
// cut and the fastest's); the cap is what stops a Byzantine voter minting
// votes for unboundedly many far-future cuts from growing the vote table.
// Eviction is deterministic — the largest tracked cut goes first, and new
// cuts beyond a full table are rejected — so spam can only displace other
// spam: certification always proceeds at the lowest pending cuts, which is
// where honest votes are.
const DefaultMaxPendingCuts = 64

// maxServesPerCut bounds how many full state-transfer responses one replica
// sends a single requester for a single cut, however many retry nonces the
// requester burns. Three covers the honest worst case — the first response
// evaporating in the requester's outage, plus one crash/retry cycle — while
// keeping a Byzantine re-requester's amplification a small constant.
const maxServesPerCut = 3

// Tracker is one replica's checkpoint state: it folds votes into pending
// cuts, certifies at quorum, retains the snapshots this replica took at its
// own cuts (for serving state transfer), and deduplicates the transfers it
// serves. Not safe for concurrent use; the owning replica serializes input.
type Tracker struct {
	me   types.ProcessID
	spec quorum.Spec
	auth *Authority

	interval   int
	maxPending int

	votes     map[int]*cutVotes // pending votes by cut slot
	latest    Certificate
	certified bool

	snapshots map[int]string // serialized app state at locally reached cuts
	served    map[serveKey]*serveRec
}

type serveKey struct {
	to  types.ProcessID
	cut int
}

// serveRec tracks the transfers already sent for one (requester, cut) pair:
// the highest request nonce answered and how many responses went out.
type serveRec struct {
	lastNonce int
	count     int
}

// cutVotes accumulates one cut's votes: first vote per voter wins, counted
// per (state, log) digest pair. voters holds one slot per peer, at its
// quorum.Spec.Index, so a scan visits voters in ascending order.
type cutVotes struct {
	voters []voteRec
}

// voteRec is one voter's vote; a slot with nil macs holds none (a verified
// vector has an entry per peer).
type voteRec struct {
	c    Checkpoint
	macs []string // the vote's full MAC vector, retained for relaying
}

// NewTracker creates a tracker for one replica. interval is the checkpoint
// cadence in slots (> 0).
func NewTracker(me types.ProcessID, spec quorum.Spec, a *Authority, interval int) (*Tracker, error) {
	if a == nil {
		return nil, fmt.Errorf("ckpt: tracker requires an authority")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("ckpt: interval %d, want > 0", interval)
	}
	return &Tracker{
		me:         me,
		spec:       spec,
		auth:       a,
		interval:   interval,
		maxPending: DefaultMaxPendingCuts,
		votes:      make(map[int]*cutVotes),
		snapshots:  make(map[int]string),
		served:     make(map[serveKey]*serveRec),
	}, nil
}

// Interval returns the checkpoint cadence in slots.
func (t *Tracker) Interval() int { return t.interval }

// SetMaxPendingCuts overrides the pending-cut cap (DefaultMaxPendingCuts).
// Values below one are ignored: a tracker must always be able to hold at
// least the cut it is certifying.
func (t *Tracker) SetMaxPendingCuts(n int) {
	if n >= 1 {
		t.maxPending = n
	}
}

// RecordLocal registers this replica's own checkpoint at a cut it just
// committed through: the snapshot is retained for state transfer, the vote
// is signed and folded locally, and the payload to broadcast is returned.
// If the local vote completes a quorum (the rest of the cluster voted
// first), the new certificate is returned with advanced == true.
func (t *Tracker) RecordLocal(c Checkpoint, snapshot string) (*types.CkptVotePayload, Certificate, bool) {
	if c.Slot >= t.floor() {
		// Below the certified cut the snapshot is already superseded; at or
		// above it, retain it — reaching a cut the cluster certified early
		// (from the others' votes) is what arms this replica to serve
		// state transfer for it.
		t.snapshots[c.Slot] = snapshot
	}
	macs := t.auth.SignVector(c)
	cert, advanced := t.noteVote(t.me, c, macs)
	return &types.CkptVotePayload{
		Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest, MACs: macs,
	}, cert, advanced
}

// NoteVote folds a received vote. It returns the newly formed certificate
// with advanced == true when this vote completed a quorum above the current
// latest cut, and with verified == true whenever the vote's MAC entry for
// this replica checked out (callers must not act on any field of an
// unverified vote, its claimed slot included). Malformed, mis-signed,
// duplicate, stale, and off-cadence votes fold nothing.
func (t *Tracker) NoteVote(from types.ProcessID, p *types.CkptVotePayload) (cert Certificate, advanced, verified bool) {
	if p == nil {
		return Certificate{}, false, false
	}
	c := Checkpoint{Slot: p.Slot, StateDigest: p.StateDigest, LogDigest: p.LogDigest}
	if !t.auth.VerifyEntry(from, c, p.MACs) {
		return Certificate{}, false, false
	}
	cert, advanced = t.noteVote(from, c, p.MACs)
	return cert, advanced, true
}

func (t *Tracker) noteVote(from types.ProcessID, c Checkpoint, macs []string) (Certificate, bool) {
	i, ok := t.spec.Index(from)
	if !ok || c.Slot <= t.floor() || c.Slot%t.interval != 0 {
		return Certificate{}, false
	}
	cv := t.votes[c.Slot]
	if cv == nil {
		if len(t.votes) >= t.maxPending && !t.evictFor(c.Slot) {
			return Certificate{}, false
		}
		cv = &cutVotes{voters: make([]voteRec, t.spec.N())}
		t.votes[c.Slot] = cv
	}
	if cv.voters[i].macs != nil {
		return Certificate{}, false // one vote per voter per cut, first wins
	}
	cv.voters[i] = voteRec{c: c, macs: macs}
	matching := 0
	for _, rec := range cv.voters {
		if rec.macs != nil && rec.c == c {
			matching++
		}
	}
	if matching < t.spec.Decide() {
		return Certificate{}, false
	}
	// Every matching voter goes into the certificate, not a bare quorum: a
	// Byzantine voter's vector may fail to verify at other receivers, and
	// the extra correct votes are what keep the certificate installable
	// there anyway. Slot order is peer order, so Voters come out ascending.
	cert := Certificate{Checkpoint: c}
	for j, rec := range cv.voters {
		if rec.macs != nil && rec.c == c {
			cert.Voters = append(cert.Voters, types.ProcessID(j+1)) // peers are 1..n
			cert.VoteMACs = append(cert.VoteMACs, rec.macs)
		}
	}
	t.adopt(cert)
	return cert, true
}

// evictFor makes room in a full vote table for a new cut. Far-future cuts
// beyond everything tracked are rejected; otherwise the largest tracked cut
// is dropped (deterministic, and always spam-first: honest cuts certify and
// leave the table long before 64 of them accumulate).
func (t *Tracker) evictFor(slot int) bool {
	largest := -1
	// order-free: a maximum
	for s := range t.votes {
		if s > largest {
			largest = s
		}
	}
	if slot >= largest {
		return false
	}
	delete(t.votes, largest)
	return true
}

// VerifyCertPayload validates a received certificate payload: quorum of
// distinct, correctly signed votes, and — when the payload carries a
// snapshot — the snapshot digesting to the certified StateDigest. It does
// not touch tracker state.
func (t *Tracker) VerifyCertPayload(p *types.CkptCertPayload) (Certificate, bool) {
	if p == nil {
		return Certificate{}, false
	}
	cert := Certificate{
		Checkpoint: Checkpoint{Slot: p.Slot, StateDigest: p.StateDigest, LogDigest: p.LogDigest},
		Voters:     p.Voters,
		VoteMACs:   p.VoteMACs,
	}
	if !t.auth.VerifyCert(cert, t.spec) {
		return Certificate{}, false
	}
	if p.Snapshot != "" && Digest(p.Snapshot) != p.StateDigest {
		return Certificate{}, false
	}
	return cert, true
}

// Adopt installs an externally received certificate (with the snapshot that
// came with it) as the latest, if it is ahead of the current one. A snapshot
// for the latest cut, certified bare, is kept so that the cut can be served
// and persisted, though that is no advance. The caller must have verified
// both via VerifyCertPayload.
func (t *Tracker) Adopt(cert Certificate, snapshot string) bool {
	if t.certified && cert.Slot <= t.latest.Slot {
		if _, held := t.snapshots[cert.Slot]; snapshot != "" && !held && cert.Checkpoint == t.latest.Checkpoint {
			t.snapshots[cert.Slot] = snapshot
		}
		return false
	}
	if snapshot != "" {
		// A bare certificate (no snapshot) still advances the cut, but
		// leaves nothing to serve; only real snapshots are retained.
		t.snapshots[cert.Slot] = snapshot
	}
	t.adopt(cert)
	return true
}

// adopt sets the latest certificate and releases everything below it: votes
// for superseded cuts and snapshots below the cut (the one *at* the cut is
// what state transfer serves).
func (t *Tracker) adopt(cert Certificate) {
	t.latest = cert
	t.certified = true
	maps.DeleteFunc(t.votes, func(s int, _ *cutVotes) bool { return s <= cert.Slot })
	maps.DeleteFunc(t.snapshots, func(s int, _ string) bool { return s < cert.Slot })
	maps.DeleteFunc(t.served, func(k serveKey, _ *serveRec) bool { return k.cut < cert.Slot })
}

// Latest returns the highest certified checkpoint.
func (t *Tracker) Latest() (Certificate, bool) { return t.latest, t.certified }

// CertPayload builds the wire form of the latest certificate. withSnapshot
// attaches the retained snapshot at the cut (for state-transfer responses);
// ok is false when no certificate exists or a requested snapshot is not
// held (certified from votes without ever reaching the cut locally).
func (t *Tracker) CertPayload(withSnapshot bool) (*types.CkptCertPayload, bool) {
	if !t.certified {
		return nil, false
	}
	p := &types.CkptCertPayload{
		Slot:        t.latest.Slot,
		StateDigest: t.latest.StateDigest,
		LogDigest:   t.latest.LogDigest,
		Voters:      t.latest.Voters,
		VoteMACs:    t.latest.VoteMACs,
	}
	if withSnapshot {
		snap, ok := t.snapshots[t.latest.Slot]
		if !ok {
			return nil, false
		}
		p.Snapshot = snap
	}
	return p, true
}

// ShouldServe reports whether a state transfer of the latest cut to the
// given requester should go out, and marks it served. The first request for
// a (requester, cut) pair is always served; afterwards only a strictly
// higher nonce — the requester's retry counter, incremented per request —
// gets another response, and never more than maxServesPerCut in total. A
// genuine retry (the previous response was lost in the requester's outage,
// or came back stale/unverifiable from a Byzantine responder) therefore
// gets through, while replayed or duplicated requests stay deduplicated and
// a hostile re-requester is amplification-bounded by a small constant.
func (t *Tracker) ShouldServe(to types.ProcessID, nonce int) bool {
	if !t.certified {
		return false
	}
	k := serveKey{to: to, cut: t.latest.Slot}
	rec := t.served[k]
	if rec == nil {
		t.served[k] = &serveRec{lastNonce: nonce, count: 1}
		return true
	}
	if nonce <= rec.lastNonce || rec.count >= maxServesPerCut {
		return false
	}
	rec.lastNonce = nonce
	rec.count++
	return true
}

// floor is the cut at or below which votes are dead (already certified).
func (t *Tracker) floor() int {
	if !t.certified {
		return 0
	}
	return t.latest.Slot
}

// PendingCuts returns how many uncertified cuts hold votes (diagnostics;
// bounded by the pending-cut cap).
func (t *Tracker) PendingCuts() int { return len(t.votes) }

// Coded dissemination: AVID-style reliable broadcast over Reed–Solomon
// fragments (Cachin–Tessaro's asynchronous verifiable information dispersal
// applied to Bracha's echo/ready skeleton).
//
// The uncoded protocol echoes the full body n times, so one broadcast costs
// O(n²·|v|) total wire bytes. The coded protocol disperses per-peer
// fragments of |v|/k bytes and echoes only those, cutting the body traffic
// to O(n·|v|) total (O(|v|) per process) plus an O(n²·λ) checksum term:
//
//	sender:  split body into k data + n−k parity shards (internal/rscode);
//	         Sums ← the n fragment SHA-256 digests, concatenated;
//	         send FRAG(i, |v|, Sums, shard_i) to peer i        — "disperse"
//	on FRAG from the instance's sender carrying MY index, first one only,
//	fragment verified against Sums:
//	         broadcast FRAG(my index, |v|, Sums, my shard)      — "echo"
//	on FRAG from peer j carrying j's own index, verified: count an echo
//	         vote for key = SHA-256(|v| ‖ Sums) and store the fragment
//	on ⌈(n+f+1)/2⌉ echo votes for key, or f+1 READYs, if no READY yet:
//	         broadcast SUM(key)                                 — "ready"
//	on 2f+1 SUM(key) AND ≥ k stored fragments that decode to a body whose
//	re-encoding matches every digest in Sums, if not yet delivered:
//	         deliver(body)
//
// Echoes carry the full Sums vector so any fragment is verifiable in
// isolation; readies carry only the 32-byte key, keeping amplification at
// O(n·λ) per process. The tally key binds (|v|, Sums) — two dispersals
// differing in either count as different bodies, exactly as distinct body
// strings do uncoded.
//
// Why the quorum logic is unchanged: an echo vote for a key commits the
// voter to the full digest vector, so the Echo() threshold's intersection
// argument rules out two keys reaching quorum the same way it rules out two
// bodies. Decoding is deterministic in the key alone — all fragments are
// digest-verified, so the candidate content of every shard index is fixed by
// Sums, any k of them interpolate the same polynomial if one consistent
// codeword exists, and the re-encode check accepts either everywhere or
// nowhere. A Byzantine sender whose Sums vector is *not* a codeword loses
// only its own liveness: the re-encode check fails identically at every
// correct process (the key is poisoned, nothing delivers), and agreement,
// integrity, and totality are untouched. Totality needs one extra
// arithmetic fact, k ≤ Echo() − f (CodedDataShards enforces it): a ready
// quorum implies Echo() echo votes somewhere, at least Echo() − f of them
// from correct processes whose fragment echoes reach everyone — enough to
// decode wherever the 2f+1 READYs arrive.
//
// A coded instance is the plain instance type of rbc.go with its coded-only
// state behind one pointer (codedState), kept in the same instance table:
// compaction, PruneBelow, DropSeqBelow, Delivered and Instances see one
// table and treat both modes alike, and maybeReadyAndDeliver applies the
// threshold rules above with only the READY payload and the decode gate
// depending on the mode.
//
// The coded path allocates only what it hands out. A dispersal is three
// allocations: its n payloads are one slice, its n fragments substrings of
// one string, and its Sums string is shared by all n. An instance takes its
// coded state from a block of blockLen and its n-slot fragment table from a
// chunk of blockLen tables, both kept in coder so a plain broadcaster holds
// neither; like instance blocks they are never reused, because in-flight
// FRAG and SUM copies point at a state's echoPayload and readyPayload. An
// honest sender's one (TotalLen, Sums) pair, its tally key and its fragment
// set live inline in the state, so an honest instance allocates only its
// 32-byte key and its delivered body besides; the keys and sets maps are made
// only for a second distinct pair. A released or dropped instance clears its
// fragment tables and body (retire), so neither a shared chunk nor a block
// kept alive by in-flight copies holds fragments. Its byte work runs in three
// buffers the broadcaster keeps next to its code (coder) and reuses —
// shards, where rscode.AppendSplit lays out a dispersal's n shards and a
// decode's re-encoding; gather, the k held fragments a decode copies back to
// back for rscode.AppendReconstruct; and body, what AppendReconstruct
// writes. Each buffer, and the scratch bytes below, is allocated at the
// full size of its use and replaced only when a longer shard needs more
// (room), not regrown through an append's doubling steps. Reuse is safe
// because nothing keeps a reference into them: fragments are stored as the
// payload strings they arrived in, every field sent is a string copied out,
// and the delivered body is a new string, so the next encode or decode may
// overwrite all three.
package rbc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/quorum"
	"repro/internal/rscode"
	"repro/internal/types"
)

// sumLen is the width of one cross-checksum entry (SHA-256); wire.SumLen
// mirrors it (they are pinned equal in the wire tests via payload bounds).
const sumLen = sha256.Size

// CodedDataShards returns the data-shard count k the coded mode uses for a
// spec: the issue's bandwidth-optimal n−2f, capped at Echo()−f so totality
// holds at every legal spec (at optimal resilience n = 3f+1 the two
// coincide at f+1), and floored at 1.
func CodedDataShards(spec quorum.Spec) int {
	k := spec.N() - 2*spec.F()
	if m := spec.Echo() - spec.F(); m < k {
		k = m
	}
	if k < 1 {
		k = 1
	}
	return k
}

// NewCoded creates a Broadcaster in coded-dissemination mode: broadcasts
// disperse Reed–Solomon fragments ((n, CodedDataShards) code over the peer
// list) and instance traffic arrives via AppendHandleFrag/AppendHandleSum.
// Deliveries and the pruning contract are identical to New's.
// It panics if the peer set cannot carry a GF(2^8) code (more than 255
// peers); callers size clusters long before this bound.
func NewCoded(me types.ProcessID, peers []types.ProcessID, spec quorum.Spec) *Broadcaster {
	b := New(me, peers, spec)
	code, err := rscode.New(len(peers), CodedDataShards(spec))
	if err != nil {
		panic(fmt.Sprintf("rbc: coded mode unavailable for %d peers: %v", len(peers), err))
	}
	k := code.K()
	b.code = &coder{Code: code, idxs: make([]int, 0, k), frags: make([][]byte, 0, k)}
	return b
}

// coder is the coded mode's Reed–Solomon code and the buffers its paths
// reuse (see the file comment). scratch holds bytes on their way into a
// hash, a split or a string: a fragment under digest check, a tally-key
// preimage, a dispersed body, then its Sums vector. idxs and frags are
// gather's view as AppendReconstruct takes it, k entries each, made at
// that size.
//
// states and tables are the unused rest of the blocks coded instances take
// their state from: newInstance hands out the next codedState of a block of
// blockLen, and a fragment set the next n-slot table of a chunk of blockLen
// tables (see fragTable). Like instance blocks, neither is ever reused.
type coder struct {
	*rscode.Code
	scratch              []byte
	shards, gather, body []byte
	idxs                 []int
	frags                [][]byte
	states               []codedState
	tables               []string
}

// room returns buf emptied, with room for size bytes: a buffer too small for
// a use is replaced once by one of the use's full size, where appending
// would regrow it step by step.
func room(buf []byte, size int) []byte {
	if cap(buf) < size {
		return make([]byte, 0, size)
	}
	return buf[:0]
}

// shard returns shard i of the last AppendSplit into shards.
func (c *coder) shard(i, shardLen int) []byte {
	return c.shards[i*shardLen : (i+1)*shardLen]
}

// sumKey identifies one claimed codeword before hashing: the dispersal's
// body length plus its digest vector. Used only to intern the 32-byte tally
// key so repeated fragments of one dispersal never re-hash or re-allocate.
type sumKey struct {
	sums  string
	total int
}

// fragTable returns an empty n-slot fragment table carved from a chunk of
// blockLen tables. The three-index slice caps it at its own n slots, so no
// two sets share one.
func (c *coder) fragTable() []string {
	n := c.N()
	if len(c.tables) < n {
		c.tables = make([]string, blockLen*n)
	}
	t := c.tables[:n:n]
	c.tables = c.tables[n:]
	return t
}

// fragSet accumulates the digest-verified fragments supporting one tally
// key, the interned SHA-256 of (totalLen, sums). frags is indexed by shard
// index; empty string = not yet seen. frags is nil until the first fragment
// under the key is stored.
type fragSet struct {
	key      string
	totalLen int
	sums     string
	frags    []string
	have     int
	// decoded/poisoned is the permanent decode verdict: a key whose
	// fragments interpolate to a body that re-encodes to every digest in
	// sums decodes once and caches the body; a key that fails the re-encode
	// check can never succeed (the verdict is a function of sums alone) and
	// is poisoned forever.
	decoded  bool
	poisoned bool
	body     string
}

// codedState is what a coded instance holds beyond the plain instance's
// latches and tallies (whose bodies are tally keys here, one echo vote per
// peer for its own fragment): the fragment and checksum fan-out payloads,
// shared by every outgoing copy as in the plain instance, the interned tally
// keys, and the fragment set of every key.
//
// An honest sender's instance sees one (totalLen, Sums) pair, so the first
// pair interned, its key and its fragment set are held inline in first. The
// keys and sets maps hold every later pair and stay nil until a second
// distinct pair arrives — an equivocating or poisoning sender's.
type codedState struct {
	echoPayload  types.RBCFragPayload
	readyPayload types.RBCSumPayload

	first fragSet
	keys  map[sumKey]string
	sets  map[string]*fragSet
}

// set returns key's fragment set, or nil if no fragment was stored under it.
func (cs *codedState) set(key string) *fragSet {
	if cs.first.frags != nil && cs.first.key == key {
		return &cs.first
	}
	return cs.sets[key]
}

// retire drops a released instance's fragments and decoded body. Its
// fragment tables are carved from chunks that live instances share, and its
// state from a block that in-flight copies of its payloads keep alive, so
// without this a released instance could hold its fragments alive through
// either.
func (cs *codedState) retire() {
	clear(cs.first.frags)
	cs.first.body = ""
	// order-free: each set is cleared on its own
	for _, set := range cs.sets {
		clear(set.frags)
		set.body = ""
	}
}

// appendDisperse is the coded sender path: split the body, digest every
// shard, and send each peer its fragment with the full cross-checksum. A
// dispersal is three allocations: the n payloads are one slice, the n
// fragments substrings of one string, and the Sums string is shared by all
// n payloads.
func (b *Broadcaster) appendDisperse(out []types.Message, tag types.Tag, body string) []types.Message {
	id := types.InstanceID{Sender: b.me, Tag: tag}
	c := b.code
	shardLen := c.ShardLen(len(body))
	c.scratch = append(room(c.scratch, max(len(body), len(b.peers)*sumLen)), body...)
	c.shards = c.AppendSplit(room(c.shards, len(b.peers)*shardLen), c.scratch)
	c.scratch = c.scratch[:0]
	for i := range b.peers {
		d := sha256.Sum256(c.shard(i, shardLen))
		c.scratch = append(c.scratch, d[:]...)
	}
	sumsStr := string(c.scratch)
	frags := string(c.shards)
	ps := make([]types.RBCFragPayload, len(b.peers))
	for i, peer := range b.peers {
		ps[i] = types.RBCFragPayload{
			ID:       id,
			Index:    i,
			TotalLen: len(body),
			Sums:     sumsStr,
			Frag:     frags[i*shardLen : (i+1)*shardLen],
		}
		out = append(out, types.Message{From: b.me, To: peer, Payload: &ps[i]})
	}
	return out
}

// fragValid performs the structural and cryptographic checks a fragment must
// pass before it can touch instance state: the digest vector must cover
// exactly this cluster's n shards, the index must name a shard, the
// fragment must have the one length a body of TotalLen shards into, and its
// SHA-256 must equal its Sums entry. Everything else about the claimed
// codeword is settled at decode time.
func (b *Broadcaster) fragValid(p *types.RBCFragPayload) bool {
	n := b.code.N()
	if len(p.Sums) != n*sumLen {
		return false
	}
	if p.Index < 0 || p.Index >= n {
		return false
	}
	if p.TotalLen < 0 || len(p.Frag) != b.code.ShardLen(p.TotalLen) {
		return false
	}
	b.code.scratch = append(room(b.code.scratch, len(p.Frag)), p.Frag...)
	d := sha256.Sum256(b.code.scratch)
	off := p.Index * sumLen
	for i := 0; i < sumLen; i++ {
		if p.Sums[off+i] != d[i] {
			return false
		}
	}
	return true
}

// internKey returns the 32-byte tally key SHA-256(uvarint(totalLen) ‖ sums),
// computed once per (totalLen, sums) pair per instance: the first pair is
// interned inline, later ones in the keys map.
func (b *Broadcaster) internKey(cs *codedState, totalLen int, sums string) string {
	f := &cs.first
	if f.key != "" && f.totalLen == totalLen && f.sums == sums {
		return f.key
	}
	sk := sumKey{sums: sums, total: totalLen}
	if k, ok := cs.keys[sk]; ok {
		return k
	}
	c := b.code
	c.scratch = binary.AppendUvarint(room(c.scratch, binary.MaxVarintLen64+len(sums)), uint64(totalLen))
	c.scratch = append(c.scratch, sums...)
	d := sha256.Sum256(c.scratch)
	k := string(d[:])
	switch {
	case f.key == "":
		f.key, f.totalLen, f.sums = k, totalLen, sums
	case cs.keys == nil:
		cs.keys = map[sumKey]string{sk: k}
	default:
		cs.keys[sk] = k
	}
	return k
}

// addSet creates the fragment set of key, interned from (totalLen, sums):
// inline if key is the first key, else in the sets map.
func (b *Broadcaster) addSet(cs *codedState, key string, totalLen int, sums string) *fragSet {
	if key == cs.first.key {
		cs.first.frags = b.code.fragTable()
		return &cs.first
	}
	set := &fragSet{key: key, totalLen: totalLen, sums: sums, frags: b.code.fragTable()}
	if cs.sets == nil {
		cs.sets = make(map[string]*fragSet)
	}
	cs.sets[key] = set
	return set
}

// AppendHandleFrag processes a coded dispersal or fragment echo. Fragments
// failing verification, fragments for compacted or dropped instances, and
// any fragment arriving at an uncoded broadcaster are byte-identical
// silence, mirroring AppendHandle's contract; the deliveries are valid
// until the next handler call, as Handle's are.
func (b *Broadcaster) AppendHandleFrag(out []types.Message, from types.ProcessID, p *types.RBCFragPayload) ([]types.Message, []Delivery) {
	if p == nil || b.code == nil {
		return out, nil
	}
	in, c, ok := b.live(p.ID)
	// This process's own echo coming back is the payload it adopted after
	// checking it (see the disperse rule below), immutable since: checking
	// it again would hash the same bytes to the same verdict.
	if !ok || (in == nil || p != &in.coded.echoPayload) && !b.fragValid(p) {
		return out, nil
	}
	if in == nil {
		in = b.newInstance(p.ID, c)
	}
	cs := in.coded
	key := b.internKey(cs, p.TotalLen, p.Sums)

	// Disperse rule: the instance's sender handed me my fragment — adopt it
	// (first dispersal wins, like the first SEND) and echo it to everyone.
	if myIdx, _ := b.spec.Index(b.me); from == p.ID.Sender && p.Index == myIdx && !in.echoed {
		in.echoed = true
		cs.echoPayload = types.RBCFragPayload{
			ID: p.ID, Index: p.Index, TotalLen: p.TotalLen, Sums: p.Sums, Frag: p.Frag,
		}
		out = types.AppendBroadcast(out, b.me, b.peers, &cs.echoPayload)
	}

	// Echo-vote rule: a peer speaks only for its own shard slot. Store the
	// verified fragment toward decoding and count the vote toward the echo
	// quorum for this key. (A fragment relayed under someone else's index
	// was already useful above if it was my dispersal; it casts no vote.)
	pi, ok := b.spec.Index(from)
	if !ok || p.Index != pi {
		return out, nil
	}
	set := cs.set(key)
	if set == nil {
		set = b.addSet(cs, key, p.TotalLen, p.Sums)
	}
	if set.frags[p.Index] == "" {
		set.frags[p.Index] = p.Frag
		set.have++
	}
	echoes, readies := b.vote(in, key, pi, false)
	return b.maybeReadyAndDeliver(out, in, p.ID, key, echoes, readies)
}

// AppendHandleSum processes a coded ready message (the 32-byte tally key).
// The same silence and delivery-lifetime contract as AppendHandleFrag
// applies.
func (b *Broadcaster) AppendHandleSum(out []types.Message, from types.ProcessID, p *types.RBCSumPayload) ([]types.Message, []Delivery) {
	if p == nil || b.code == nil || len(p.Sum) != sumLen {
		return out, nil
	}
	in, c, ok := b.live(p.ID)
	pi, peer := b.spec.Index(from)
	if !ok || !peer {
		return out, nil
	}
	if in == nil {
		in = b.newInstance(p.ID, c)
	}
	echoes, readies := b.vote(in, p.Sum, pi, true)
	return b.maybeReadyAndDeliver(out, in, p.ID, p.Sum, echoes, readies)
}

// tryDecode attempts to reconstruct the body for key from the stored
// fragments: interpolate from any k, re-encode, and compare every shard
// digest against the dispersal's Sums. Success caches the body; failure
// poisons the key permanently — both verdicts are functions of the digest
// vector alone, so every correct process reaches the same one.
func (b *Broadcaster) tryDecode(cs *codedState, key string) (string, bool) {
	set := cs.set(key)
	if set == nil || set.poisoned {
		return "", false
	}
	if set.decoded {
		return set.body, true
	}
	c := b.code
	k := c.K()
	if set.have < k {
		return "", false
	}
	// Every held fragment has the one length fragValid admits for totalLen.
	shardLen := c.ShardLen(set.totalLen)
	c.idxs, c.gather, c.frags = c.idxs[:0], room(c.gather, k*shardLen), c.frags[:0]
	for i, f := range set.frags {
		if f == "" {
			continue
		}
		c.idxs = append(c.idxs, i)
		c.gather = append(c.gather, f...)
		if len(c.idxs) == k {
			break
		}
	}
	for j := range c.idxs {
		c.frags = append(c.frags, c.gather[j*shardLen:(j+1)*shardLen])
	}
	body, err := c.AppendReconstruct(room(c.body, set.totalLen), c.idxs, c.frags, set.totalLen)
	c.body = body
	if err != nil {
		set.poisoned = true
		return "", false
	}
	// Re-encode and verify the full digest vector: the k fragments we used
	// are digest-bound already, and this check extends the binding to every
	// shard a straggler might decode from instead. It runs whatever k we
	// held — skipping it for an all-systematic set would let that set accept
	// a dispersal other sets reject. A held fragment passed fragValid against
	// this same Sums entry, so a re-encoded shard byte-equal to it has that
	// digest; only the other shards are hashed, and the verdict is the one
	// hashing all n would give.
	c.shards = c.AppendSplit(room(c.shards, c.N()*shardLen), body)
	for i := range set.frags {
		s := c.shard(i, shardLen)
		if f := set.frags[i]; f != "" && f == string(s) {
			continue
		}
		d := sha256.Sum256(s)
		off := i * sumLen
		for j := 0; j < sumLen; j++ {
			if set.sums[off+j] != d[j] {
				set.poisoned = true
				return "", false
			}
		}
	}
	set.decoded = true
	set.body = string(body)
	return set.body, true
}

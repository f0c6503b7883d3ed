// Package types defines the shared vocabulary of the repository: process
// identifiers, binary consensus values, and the payload taxonomy for every
// message exchanged by the protocols (Bracha reliable broadcast, Bracha
// randomized consensus, the Rabin-style common coin, the decide-amplification
// gadget, and the Ben-Or baseline).
//
// It is a leaf package: nothing here imports any other package in this module,
// so every protocol and substrate can depend on it without cycles.
package types

import (
	"fmt"
	"strconv"
)

// ProcessID identifies a process in the system. Processes are numbered
// 1..n; the zero value is reserved and never a valid process.
type ProcessID int

// String implements fmt.Stringer.
func (p ProcessID) String() string { return "p" + strconv.Itoa(int(p)) }

// Value is a binary consensus value, 0 or 1. Bracha's PODC-84 protocol is a
// binary consensus protocol; multi-valued consensus is built on top of it by
// applications (see internal/acs and internal/smr).
type Value uint8

// The two binary values.
const (
	Zero Value = 0
	One  Value = 1
)

// Valid reports whether v is one of the two binary values.
func (v Value) Valid() bool { return v == Zero || v == One }

// Not returns the other binary value.
func (v Value) Not() Value {
	if v == Zero {
		return One
	}
	return Zero
}

// String implements fmt.Stringer.
func (v Value) String() string { return strconv.Itoa(int(v)) }

// Step identifies one of the three steps of a Bracha consensus round.
type Step int

// The three steps of a round, as in the paper.
const (
	Step1 Step = 1 // broadcast value, adopt majority
	Step2 Step = 2 // broadcast value, propose D(v) on > n/2
	Step3 Step = 3 // broadcast value, decide on 2f+1 D(v), adopt on f+1, else coin
)

// Valid reports whether s is one of the three protocol steps.
func (s Step) Valid() bool { return s >= Step1 && s <= Step3 }

// String implements fmt.Stringer.
func (s Step) String() string { return "S" + strconv.Itoa(int(s)) }

// Kind discriminates the concrete payload carried by a Message.
type Kind uint8

// Payload kinds. The RBC kinds wrap the three phases of Bracha reliable
// broadcast; the remaining kinds are top-level protocol messages.
const (
	KindRBCSend     Kind = iota + 1 // initial broadcast by the RBC sender
	KindRBCEcho                     // echo of a witnessed send
	KindRBCReady                    // ready amplification
	KindCoinShare                   // Rabin common-coin share
	KindDecide                      // decide-amplification gadget
	KindPlain                       // unvalidated point-to-point (Ben-Or baseline)
	KindCkptVote                    // checkpoint vote (protocol-level log checkpointing)
	KindCkptRequest                 // state-transfer request from a lagging replica
	KindCkptCert                    // checkpoint certificate, optionally carrying a snapshot
	KindBatch                       // batched command proposal (rides inside an RBC body, never a top-level payload)
	KindRBCFrag                     // coded RBC: one Reed–Solomon fragment + the cross-checksum vector
	KindRBCSum                      // coded RBC: ready amplification keyed by the cross-checksum digest
)

// KindCount bounds the dense per-kind tables (the telemetry sinks in
// internal/sim): every valid Kind is strictly below it, so a [KindCount]
// array indexed by Kind needs no bounds logic beyond a validity check.
const KindCount = int(KindRBCSum) + 1

var kindNames = map[Kind]string{
	KindRBCSend:     "RBC-SEND",
	KindRBCEcho:     "RBC-ECHO",
	KindRBCReady:    "RBC-READY",
	KindCoinShare:   "COIN",
	KindDecide:      "DECIDE",
	KindPlain:       "PLAIN",
	KindCkptVote:    "CKPT-VOTE",
	KindCkptRequest: "CKPT-REQ",
	KindCkptCert:    "CKPT-CERT",
	KindBatch:       "BATCH",
	KindRBCFrag:     "RBC-FRAG",
	KindRBCSum:      "RBC-SUM",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Payload is implemented by every protocol message payload.
type Payload interface {
	// Kind returns the payload discriminator.
	Kind() Kind
}

// Tag identifies the application-level slot an RBC instance serves. For the
// consensus protocol a tag is a (round, step) pair; standalone reliable
// broadcast streams use Seq with Round = Step = 0.
type Tag struct {
	Round int
	Step  Step
	Seq   int
}

// String implements fmt.Stringer.
func (t Tag) String() string {
	if t.Round == 0 && t.Step == 0 {
		return "seq" + strconv.Itoa(t.Seq)
	}
	return fmt.Sprintf("r%d/%s", t.Round, t.Step)
}

// InstanceID uniquely identifies one reliable-broadcast instance: the
// original broadcaster plus the application tag it is broadcasting for.
type InstanceID struct {
	Sender ProcessID
	Tag    Tag
}

// String implements fmt.Stringer.
func (id InstanceID) String() string {
	return fmt.Sprintf("%s@%s", id.Sender, id.Tag)
}

// RBCPayload is a reliable-broadcast protocol message. Phase is one of the
// three RBC kinds. Body is the opaque broadcast content (for consensus, a
// wire-encoded StepMessage); it is a string so instances can key maps by it.
type RBCPayload struct {
	Phase Kind
	ID    InstanceID
	Body  string
}

// Kind implements Payload.
func (p *RBCPayload) Kind() Kind { return p.Phase }

// String implements fmt.Stringer.
func (p *RBCPayload) String() string {
	return fmt.Sprintf("%s[%s|%q]", p.Phase, p.ID, p.Body)
}

// RBCFragPayload is a coded-RBC dispersal or fragment-echo message
// (AVID-style): one Reed–Solomon fragment of the broadcast body plus the
// cross-checksum vector that binds every fragment to the same codeword.
// Sums is the concatenation, in peer order, of the 32-byte SHA-256 digests
// of all n fragments; it travels in every fragment message so receivers can
// verify any fragment against the sender's claimed codeword without seeing
// the rest. Index is the 0-based shard index of Frag (also the peer slot it
// was dispersed to); TotalLen is the body length before shard padding.
type RBCFragPayload struct {
	ID       InstanceID
	Index    int
	TotalLen int
	Sums     string
	Frag     string
}

// Kind implements Payload.
func (p *RBCFragPayload) Kind() Kind { return KindRBCFrag }

// String implements fmt.Stringer.
func (p *RBCFragPayload) String() string {
	return fmt.Sprintf("RBC-FRAG[%s #%d len=%d frag=%dB]", p.ID, p.Index, p.TotalLen, len(p.Frag))
}

// RBCSumPayload is the coded-RBC ready message: "I know 2f+1 echoes agree on
// this codeword". Sum is the 32-byte key SHA-256(TotalLen ‖ Sums) — readies
// carry only the key, never fragments, which is what keeps the ready/deliver
// amplification O(n·λ) per process instead of O(n·|v|).
type RBCSumPayload struct {
	ID  InstanceID
	Sum string
}

// Kind implements Payload.
func (p *RBCSumPayload) Kind() Kind { return KindRBCSum }

// String implements fmt.Stringer.
func (p *RBCSumPayload) String() string {
	return fmt.Sprintf("RBC-SUM[%s %x…]", p.ID, p.Sum[:min(4, len(p.Sum))])
}

// BroadcastID returns the reliable-broadcast instance p belongs to when p
// is one of the three broadcast payloads (RBCPayload, RBCFragPayload,
// RBCSumPayload). Route and sim's adaptive scheduler classify traffic by
// it; handing it to the broadcaster is rbc.Broadcaster.AppendHandlePayload's
// job.
func BroadcastID(p Payload) (InstanceID, bool) {
	switch p := p.(type) {
	case *RBCPayload:
		return p.ID, true
	case *RBCFragPayload:
		return p.ID, true
	case *RBCSumPayload:
		return p.ID, true
	}
	return InstanceID{}, false
}

// Plane is the traffic plane a payload travels on in a stack that
// multiplexes input dissemination, binary agreement and its coin (and
// checkpointing) over one network. The zero Plane is no plane: a payload
// such a stack drops.
type Plane uint8

// The planes Route maps payloads to.
const (
	PlaneValues Plane = iota + 1 // reliable broadcasts tagged in the dissemination namespace
	PlaneBinary                  // binary-agreement broadcasts and DECIDE votes
	PlaneCoin                    // common-coin shares
	PlaneCkpt                    // checkpoint votes, transfer requests and certificates
)

// Route maps a payload to its plane and the instance it names, for a stack
// whose dissemination tags start at Seq ns: a reliable broadcast tagged at
// or past ns is on PlaneValues at instance Seq−ns, one tagged below ns on
// PlaneBinary at instance Seq, and a DECIDE on PlaneBinary at its Instance.
// Coin and checkpoint payloads name no instance.
func Route(p Payload, ns int) (int, Plane) {
	if id, ok := BroadcastID(p); ok {
		if id.Tag.Seq >= ns {
			return id.Tag.Seq - ns, PlaneValues
		}
		return id.Tag.Seq, PlaneBinary
	}
	switch p := p.(type) {
	case *DecidePayload:
		return p.Instance, PlaneBinary
	case *CoinSharePayload:
		return 0, PlaneCoin
	case *CkptVotePayload, *CkptRequestPayload, *CkptCertPayload:
		return 0, PlaneCkpt
	}
	return 0, 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CoinSharePayload carries one process's share of the common coin for a
// round. Share and MAC are opaque to everything except internal/coin, which
// encodes and verifies them against the dealer's setup.
type CoinSharePayload struct {
	Round int
	Share string
	MAC   string
}

// Kind implements Payload.
func (p *CoinSharePayload) Kind() Kind { return KindCoinShare }

// String implements fmt.Stringer.
func (p *CoinSharePayload) String() string {
	return fmt.Sprintf("COIN[r%d]", p.Round)
}

// DecidePayload is the decide-amplification gadget message: "I have decided
// V" (or "I relay a quorum of decisions for V"). Instance namespaces the
// gadget when multiple consensus instances share a network (for example the
// slots of a replicated log); single-instance deployments leave it 0.
type DecidePayload struct {
	V        Value
	Instance int
}

// Kind implements Payload.
func (p *DecidePayload) Kind() Kind { return KindDecide }

// String implements fmt.Stringer.
func (p *DecidePayload) String() string {
	if p.Instance != 0 {
		return fmt.Sprintf("DECIDE[%s#%d]", p.V, p.Instance)
	}
	return "DECIDE[" + p.V.String() + "]"
}

// PlainPayload is an unvalidated point-to-point protocol message, used by the
// Ben-Or (1983) baseline which predates both reliable broadcast and message
// validation. D marks a decision proposal; Q marks Ben-Or's "?" message (no
// supermajority witnessed in phase 1).
type PlainPayload struct {
	Round int
	Step  Step
	V     Value
	D     bool
	Q     bool
}

// Kind implements Payload.
func (p *PlainPayload) Kind() Kind { return KindPlain }

// String implements fmt.Stringer.
func (p *PlainPayload) String() string {
	suffix := ""
	if p.D {
		suffix = "*D"
	}
	if p.Q {
		suffix = "*?"
	}
	return fmt.Sprintf("PLAIN[r%d/%s v=%s%s]", p.Round, p.Step, p.V, suffix)
}

// CkptVotePayload is one replica's checkpoint vote: "my log through slot
// Slot (exclusive) and the state it produced digest to these values". Votes
// are broadcast when a replica's commit frontier crosses a checkpoint cut;
// 2f+1 votes on the same (Slot, StateDigest, LogDigest) form a certificate.
// MACs is the vote's PBFT-style MAC vector — one entry per cluster member
// in peer order, each under the pairwise (voter, receiver) link key
// (internal/ckpt) — which is what makes certificates transferable: every
// receiver of a relayed vote verifies its own entry.
type CkptVotePayload struct {
	Slot        int
	StateDigest uint64
	LogDigest   uint64
	MACs        []string
}

// Kind implements Payload.
func (p *CkptVotePayload) Kind() Kind { return KindCkptVote }

// String implements fmt.Stringer.
func (p *CkptVotePayload) String() string {
	return fmt.Sprintf("CKPT-VOTE[slot=%d state=%x log=%x]", p.Slot, p.StateDigest, p.LogDigest)
}

// CkptRequestPayload asks a peer for state transfer: "my next undecided slot
// is Slot; if you hold a certified checkpoint above it, send certificate and
// snapshot". Sent by replicas that observe traffic at least one checkpoint
// interval ahead of their own frontier (restarted, or lagging past the
// window). Nonce is the requester's retry counter, strictly increasing
// across its requests: responders serve a (requester, cut) pair again only
// for a higher nonce than they last answered, which lets a genuine retry
// (the previous response was lost, stale, or unverifiable) through while a
// replayed or duplicated request stays deduplicated.
type CkptRequestPayload struct {
	Slot  int
	Nonce int
}

// Kind implements Payload.
func (p *CkptRequestPayload) Kind() Kind { return KindCkptRequest }

// String implements fmt.Stringer.
func (p *CkptRequestPayload) String() string {
	return fmt.Sprintf("CKPT-REQ[slot=%d nonce=%d]", p.Slot, p.Nonce)
}

// CkptCertPayload carries a checkpoint certificate: the checkpoint plus the
// certifying votes (voter identities and their full MAC vectors,
// index-aligned — the vectors travel whole so the receiver can verify its
// own entries and later re-serve the certificate to others). Snapshot is
// empty on a bare certificate announcement and holds the serialized
// application state at the cut in a state-transfer response; the receiver
// verifies the snapshot against StateDigest before installing.
type CkptCertPayload struct {
	Slot        int
	StateDigest uint64
	LogDigest   uint64
	Voters      []ProcessID
	VoteMACs    [][]string
	Snapshot    string
}

// Kind implements Payload.
func (p *CkptCertPayload) Kind() Kind { return KindCkptCert }

// String implements fmt.Stringer.
func (p *CkptCertPayload) String() string {
	snap := ""
	if p.Snapshot != "" {
		snap = fmt.Sprintf(" snap=%dB", len(p.Snapshot))
	}
	return fmt.Sprintf("CKPT-CERT[slot=%d voters=%d%s]", p.Slot, len(p.Voters), snap)
}

// Message is a point-to-point message between two processes. From is
// authenticated by the simulator by construction: a Byzantine process cannot
// impersonate another process, exactly the "authenticated links" assumption
// of the paper.
type Message struct {
	From    ProcessID
	To      ProcessID
	Payload Payload
}

// String implements fmt.Stringer.
func (m Message) String() string {
	return fmt.Sprintf("%s->%s %v", m.From, m.To, m.Payload)
}

// StepMessage is the logical content a consensus node reliably broadcasts at
// each step of a round: its current value, optionally marked as a decision
// proposal D(v) (step 3 only). It is encoded to the RBC body by internal/wire.
type StepMessage struct {
	Round int
	Step  Step
	V     Value
	D     bool
}

// String implements fmt.Stringer.
func (s StepMessage) String() string {
	d := ""
	if s.D {
		d = "D"
	}
	return fmt.Sprintf("r%d/%s %s(%s)", s.Round, s.Step, d, s.V)
}

// Broadcast expands a payload into one message per destination process,
// preserving order of dests. It is the fan-out helper used by every protocol;
// the sender must include itself in dests if it should receive its own
// message (all protocols here do, matching the paper's "send to all"
// semantics).
func Broadcast(from ProcessID, dests []ProcessID, p Payload) []Message {
	return AppendBroadcast(make([]Message, 0, len(dests)), from, dests, p)
}

// AppendBroadcast is Broadcast appending into a caller-provided slice, the
// allocation-free fan-out for hot paths that reuse an output buffer (see
// sim.Recycler).
func AppendBroadcast(dst []Message, from ProcessID, dests []ProcessID, p Payload) []Message {
	for _, d := range dests {
		dst = append(dst, Message{From: from, To: d, Payload: p})
	}
	return dst
}

// Processes returns the process identifiers 1..n.
func Processes(n int) []ProcessID {
	ps := make([]ProcessID, n)
	for i := range ps {
		ps[i] = ProcessID(i + 1)
	}
	return ps
}

// FNV-1a is the repository's non-cryptographic fingerprint, the hash of the
// checkpoint subsystem's chained log digest (ckpt.FoldEntry). Not collision
// resistant by design: agreement is enforced by a quorum (2f+1 checkpoint
// votes) before any digest is trusted, and the digest is never the
// acceptance gate for adversary-supplied bytes (the checkpoint *state*
// digest, which is, truncates SHA-256 instead — see ckpt.Digest).
// Allocation-free and inlinable, so hot paths fold bytes directly.
const (
	FNV1aInit  uint64 = 14695981039346656037
	FNV1aPrime uint64 = 1099511628211
)

// FNV1aString folds s into the running digest h (seed with FNV1aInit).
func FNV1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= FNV1aPrime
	}
	return h
}

// FNV1aUint64 folds v's eight big-endian bytes into the running digest h.
func FNV1aUint64(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= (v >> uint(shift)) & 0xFF
		h *= FNV1aPrime
	}
	return h
}

package adversary

// Checkpoint-plane Byzantine behaviours. Each one runs a genuine replica —
// the consensus traffic it originates is honest, it stays in the proposer
// rotation, and its state machine commits the same log as everyone else —
// and deviates only in the checkpoint subsystem, which makes it the
// strongest plausible attacker there: every hostile message is
// protocol-shaped and must be defeated by verification, not by
// pattern-matching. The behaviours map one-to-one onto the defenses in
// internal/ckpt:
//
//   - CkptCutEquivocate: a different (StateDigest, LogDigest) per receiver,
//     each correctly self-signed. Legal for a Byzantine voter (it holds its
//     own link keys); defeated by per-digest match counting — the
//     equivocating vote never matches the honest quorum's digests anywhere.
//   - CkptMACForge: garbage or wrong-length MAC vectors on its own votes,
//     plus forged certificates claiming honest voters over a poisoned but
//     digest-consistent snapshot. Defeated by per-receiver MAC verification
//     (a forger cannot produce a correct voter's entry for a correct pair).
//   - CkptFutureSpam: self-signed votes for dozens of far-future cuts per
//     interval, pressuring the tracker's pending-cut cap and inflating the
//     frontier hint. Defeated by largest-first eviction (spam displaces
//     spam, honest low cuts certify) and by the request pacer (an inflated
//     frontier costs bounded, deduplicated transfer requests).
//   - CkptStaleResponder: answers state-transfer requests with the previous
//     certificate instead of the latest. Defeated by the requester's
//     stale-response detection and immediate fallback to the next peer.
//   - CkptCorruptResponder: answers with the latest certificate but a
//     corrupted snapshot (bit-flipped or truncated, alternating). Defeated
//     by the snapshot-digest check in VerifyCertPayload and the same
//     fallback loop.

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
)

// CkptAttack selects a CkptByzantine behaviour.
type CkptAttack int

// The checkpoint-plane attacks.
const (
	CkptCutEquivocate CkptAttack = iota + 1
	CkptMACForge
	CkptFutureSpam
	CkptStaleResponder
	CkptCorruptResponder
)

// CkptAttacks lists every checkpoint-plane attack, in definition order —
// the iteration surface for CLIs and sweeps.
func CkptAttacks() []CkptAttack {
	return []CkptAttack{
		CkptCutEquivocate, CkptMACForge, CkptFutureSpam,
		CkptStaleResponder, CkptCorruptResponder,
	}
}

// ParseCkptAttack resolves an attack by its String() name.
func ParseCkptAttack(name string) (CkptAttack, error) {
	for _, a := range CkptAttacks() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown checkpoint attack %q (see bench scenarios for the list)", name)
}

// String implements fmt.Stringer.
func (a CkptAttack) String() string {
	switch a {
	case CkptCutEquivocate:
		return "cut-equivocate"
	case CkptMACForge:
		return "mac-forge"
	case CkptFutureSpam:
		return "future-spam"
	case CkptStaleResponder:
		return "stale-responder"
	case CkptCorruptResponder:
		return "corrupt-responder"
	default:
		return fmt.Sprintf("CkptAttack(%d)", int(a))
	}
}

// futureSpamCuts is how many far-future cuts a CkptFutureSpam attacker votes
// for at every interval — comfortably past the default pending-cut cap, so
// the eviction path is exercised, not just approached.
const futureSpamCuts = ckpt.DefaultMaxPendingCuts + 32

// CkptByzantine wraps a genuine smr.Replica and corrupts only its
// checkpoint-plane behaviour according to Kind. See the file comment for the
// attack catalogue.
type CkptByzantine struct {
	kind  CkptAttack
	inner *smr.Replica
	auth  *ckpt.Authority
	spec  quorum.Spec
	me    types.ProcessID
	peers []types.ProcessID
	// others is peers without me (fan-out of self-originated forgeries).
	others   []types.ProcessID
	interval int

	tick          int // deterministic alternation counter for MAC/snapshot corruption
	lastForgedCut int // highest cut a forged certificate / spam volley went out for

	// Responder attacks cache the inner replica's transfer payloads: cur is
	// the latest certificate with its snapshot, prev the one before it (what
	// a stale responder serves).
	lastCut int
	prev    *types.CkptCertPayload
	cur     *types.CkptCertPayload
}

// NewCkptByzantine builds a checkpoint-plane attacker over a genuine replica
// configured by cfg (which must enable checkpointing — the attack surface).
// The attacker signs its forgeries with its own legitimately held link keys,
// exactly what a compromised replica could do.
func NewCkptByzantine(kind CkptAttack, cfg smr.Config) (*CkptByzantine, error) {
	if kind < CkptCutEquivocate || kind > CkptCorruptResponder {
		return nil, fmt.Errorf("adversary: unknown checkpoint attack %d", int(kind))
	}
	if cfg.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("adversary: %v requires checkpointing enabled", kind)
	}
	inner, err := smr.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("adversary: %v: %w", kind, err)
	}
	b := &CkptByzantine{
		kind:     kind,
		inner:    inner,
		auth:     ckpt.NewAuthority(cfg.CheckpointSecret, cfg.Me, cfg.Peers),
		spec:     cfg.Spec,
		me:       cfg.Me,
		peers:    cfg.Peers,
		interval: cfg.CheckpointEvery,
	}
	for _, p := range cfg.Peers {
		if p != cfg.Me {
			b.others = append(b.others, p)
		}
	}
	return b, nil
}

var _ sim.Node = (*CkptByzantine)(nil)

// ID implements sim.Node.
func (b *CkptByzantine) ID() types.ProcessID { return b.me }

// Done implements sim.Node: the attacker halts with its inner replica (it
// stays in the proposer rotation, so the cluster needs it live).
func (b *CkptByzantine) Done() bool { return b.inner.Done() }

// Inner exposes the wrapped honest replica for harness inspection (its log
// and machine commit honestly; only checkpoint traffic is corrupted).
func (b *CkptByzantine) Inner() *smr.Replica { return b.inner }

// Start implements sim.Node.
func (b *CkptByzantine) Start() []types.Message {
	return b.corrupt(b.inner.Start())
}

// Deliver implements sim.Node. Responder attacks intercept state-transfer
// requests — the inner replica never sees them, the attacker answers in its
// place; everything else feeds the genuine replica and its emissions pass
// through the attack's outbound corruption.
func (b *CkptByzantine) Deliver(m types.Message) []types.Message {
	if req, ok := m.Payload.(*types.CkptRequestPayload); ok &&
		(b.kind == CkptStaleResponder || b.kind == CkptCorruptResponder) {
		return b.serveBad(m.From, req)
	}
	return b.corrupt(b.inner.Deliver(m))
}

// Recycle implements sim.Recycler by handing buffers back to the inner
// replica (self-originated slices are donations, same as sim.Restart).
func (b *CkptByzantine) Recycle(msgs []types.Message) { b.inner.Recycle(msgs) }

// corrupt applies the outbound half of the attack to the inner replica's
// emissions.
func (b *CkptByzantine) corrupt(msgs []types.Message) []types.Message {
	switch b.kind {
	case CkptCutEquivocate:
		for i, m := range msgs {
			v, ok := m.Payload.(*types.CkptVotePayload)
			if !ok {
				continue
			}
			// A different checkpoint per receiver, each correctly signed
			// with this replica's own keys: the strongest equivocation a
			// Byzantine voter can produce.
			c := ckpt.Checkpoint{
				Slot:        v.Slot,
				StateDigest: v.StateDigest ^ ckptMix(uint64(int64(m.To))),
				LogDigest:   v.LogDigest ^ ckptMix(uint64(int64(m.To))+1),
			}
			msgs[i].Payload = &types.CkptVotePayload{
				Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest,
				MACs: b.auth.SignVector(c),
			}
		}
	case CkptMACForge:
		var forged int
		for i, m := range msgs {
			v, ok := m.Payload.(*types.CkptVotePayload)
			if !ok {
				continue
			}
			if v.Slot > b.lastForgedCut && forged == 0 {
				forged = v.Slot // append one certificate forgery per cut, below
			}
			// Own votes go out with hostile MAC vectors, alternating between
			// the two malformed shapes: wrong length (rejected before any
			// verification) and right length with garbage entries (rejected
			// per receiver by the link-key check).
			b.tick++
			var macs []string
			if b.tick%2 == 0 {
				macs = []string{"truncated"}
			} else {
				macs = make([]string, len(b.peers))
				for j := range macs {
					macs[j] = fmt.Sprintf("forged-%d-%d", v.Slot, j)
				}
			}
			msgs[i].Payload = &types.CkptVotePayload{
				Slot: v.Slot, StateDigest: v.StateDigest, LogDigest: v.LogDigest, MACs: macs,
			}
		}
		if forged > 0 {
			b.lastForgedCut = forged
			msgs = b.appendForgedCert(msgs, forged+b.interval)
		}
	case CkptFutureSpam:
		var cut int
		for _, m := range msgs {
			if v, ok := m.Payload.(*types.CkptVotePayload); ok && v.Slot > b.lastForgedCut {
				cut = v.Slot
				break
			}
		}
		if cut > 0 {
			// The genuine vote goes out untouched; alongside it, a volley of
			// correctly self-signed votes for far-future cuts — legal
			// messages that pressure the pending-cut cap and inflate the
			// frontier hint at every receiver.
			b.lastForgedCut = cut
			for i := 1; i <= futureSpamCuts; i++ {
				c := ckpt.Checkpoint{
					Slot:        cut + i*b.interval,
					StateDigest: ckptMix(uint64(i)),
					LogDigest:   ckptMix(uint64(i) + 7),
				}
				msgs = types.AppendBroadcast(msgs, b.me, b.others, &types.CkptVotePayload{
					Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest,
					MACs: b.auth.SignVector(c),
				})
			}
		}
	case CkptStaleResponder, CkptCorruptResponder:
		b.refreshCache()
	}
	return msgs
}

// appendForgedCert broadcasts a certificate forgery for a future cut: a
// quorum of *honest* voter identities (plus the forger's own, genuinely
// signed, vote — maximal plausibility) over a poisoned snapshot whose digest
// is self-consistent. Only the MAC verification of the claimed honest votes
// stands between this and a hostile install.
func (b *CkptByzantine) appendForgedCert(msgs []types.Message, cut int) []types.Message {
	snapshot := fmt.Sprintf("#1\npoisoned state at cut %d\n", cut)
	c := ckpt.Checkpoint{Slot: cut, StateDigest: ckpt.Digest(snapshot), LogDigest: ckptMix(uint64(cut))}
	voters := []types.ProcessID{b.me}
	macs := [][]string{b.auth.SignVector(c)}
	garbage := make([]string, len(b.peers))
	for i := range garbage {
		garbage[i] = "no-such-mac"
	}
	for _, p := range b.peers {
		if len(voters) >= b.spec.Decide() {
			break
		}
		if p != b.me {
			voters = append(voters, p)
			macs = append(macs, garbage)
		}
	}
	return types.AppendBroadcast(msgs, b.me, b.others, &types.CkptCertPayload{
		Slot: c.Slot, StateDigest: c.StateDigest, LogDigest: c.LogDigest,
		Voters: voters, VoteMACs: macs, Snapshot: snapshot,
	})
}

// refreshCache tracks the inner replica's latest two transfer payloads for
// the responder attacks.
func (b *CkptByzantine) refreshCache() {
	cutNow := b.inner.CertifiedCut()
	if cutNow == b.lastCut {
		return
	}
	if p, ok := b.inner.TransferPayload(true); ok {
		b.prev, b.cur = b.cur, p
		b.lastCut = cutNow
	}
}

// serveBad answers an intercepted state-transfer request hostilely: the
// stale responder serves the previous certificate (valid but old), the
// corrupt responder serves the latest certificate with a mangled snapshot
// (bit-flipped or truncated, alternating). Either way the requester must
// detect it and fall over to the next peer.
func (b *CkptByzantine) serveBad(from types.ProcessID, _ *types.CkptRequestPayload) []types.Message {
	b.refreshCache()
	switch b.kind {
	case CkptStaleResponder:
		if b.prev == nil {
			return nil // no stale certificate to serve yet
		}
		return []types.Message{{From: b.me, To: from, Payload: b.prev}}
	case CkptCorruptResponder:
		if b.cur == nil {
			return nil
		}
		cp := *b.cur
		b.tick++
		if b.tick%2 == 0 && len(cp.Snapshot) > 1 {
			cp.Snapshot = cp.Snapshot[:len(cp.Snapshot)/2+1]
		} else {
			flipped := []byte(cp.Snapshot)
			flipped[0] ^= 0x80
			cp.Snapshot = string(flipped)
		}
		return []types.Message{{From: b.me, To: from, Payload: &cp}}
	}
	return nil
}

// ckptMix spreads a small integer into a nonzero 64-bit perturbation
// (splitmix-style multiply) for equivocating and spam digests.
func ckptMix(x uint64) uint64 {
	x = (x + 1) * 0x9e3779b97f4a7c15
	x ^= x >> 31
	return x | 1
}

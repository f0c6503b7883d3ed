// Package auth provides the message authentication the paper assumes of its
// point-to-point links, plus the share authentication used by the common-coin
// dealer. Both are HMAC-SHA256.
//
// Two trust shapes are supported:
//
//   - Keyring: pairwise symmetric keys derived from a system master secret,
//     modelling "authenticated channels" between every pair of processes. A
//     Byzantine process knows only the keys on its own links, so it cannot
//     forge traffic between two correct processes. Used for checkpoint votes.
//   - DealerKeys: per-(process, round) keys derived from a dealer secret,
//     used to authenticate coin shares so Byzantine processes cannot inject
//     fabricated shares into the reconstruction.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"repro/internal/types"
)

// MACSize is the byte length of all MACs produced by this package.
const MACSize = sha256.Size

// MAC computes HMAC-SHA256 of msg under key.
func MAC(key, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	return h.Sum(nil)
}

// DeriveKey derives a purpose-specific subkey from a master secret. The
// label namespaces uses (link keys vs dealer keys vs tests) so keys never
// collide across purposes.
func DeriveKey(master []byte, label string, parts ...int) []byte {
	buf := make([]byte, 0, len(label)+8*len(parts))
	buf = append(buf, label...)
	for _, p := range parts {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(int64(p)))
		buf = append(buf, b[:]...)
	}
	return MAC(master, buf)
}

// Keyring holds the pairwise link keys of one process. Construct one per
// process with NewKeyring from the same master secret; the key for the link
// (a, b) is symmetric and order-independent.
//
// Every link to a peer named at construction keeps one keyed HMAC state,
// and every MAC reuses one message buffer and one sum, as DealerKeys does,
// so Sign and Check on those links allocate nothing. That state makes a
// Keyring single-goroutine: each belongs to one replica's checkpoint
// authority, which its run drives from one goroutine (the only go
// statements are the sweep workers of runner/stream.go, each running whole
// runs; TestGoStatementsConfined keeps it so).
type Keyring struct {
	owner  types.ProcessID
	master []byte
	// links holds the keyed MAC state of every peer named at construction,
	// derived once; a link to any other process is derived on use.
	links map[types.ProcessID]hash.Hash
	msg   []byte
	sum   [MACSize]byte
}

// NewKeyring returns the keyring of process owner under the given system
// master secret. All processes of a deployment must share the same master.
// The link keys to peers are derived here, once, instead of on every Sign
// and Check.
func NewKeyring(master []byte, owner types.ProcessID, peers ...types.ProcessID) *Keyring {
	m := make([]byte, len(master))
	copy(m, master)
	k := &Keyring{owner: owner, master: m, links: make(map[types.ProcessID]hash.Hash, len(peers))}
	for _, p := range peers {
		k.links[p] = hmac.New(sha256.New, k.linkKey(p))
	}
	return k
}

// Owner returns the process this keyring belongs to.
func (k *Keyring) Owner() types.ProcessID { return k.owner }

// linkKey derives the symmetric key for the link between the owner and
// peer.
func (k *Keyring) linkKey(peer types.ProcessID) []byte {
	lo, hi := k.owner, peer
	if lo > hi {
		lo, hi = hi, lo
	}
	return DeriveKey(k.master, "link", int(lo), int(hi))
}

// linkMAC computes the MAC of frame on the link to peer into k.sum and
// returns it; the result is overwritten by the next call. The frame is
// copied into k.msg first, so it never escapes through the hash.
func (k *Keyring) linkMAC(peer types.ProcessID, frame []byte) []byte {
	k.msg = append(k.msg[:0], frame...)
	h, ok := k.links[peer]
	if !ok {
		return MAC(k.linkKey(peer), k.msg)
	}
	h.Reset()
	h.Write(k.msg)
	return h.Sum(k.sum[:0])
}

// Sign MACs a frame sent from the keyring owner to peer. The MAC is valid
// until the keyring's next Sign or Check; a caller that keeps it copies it.
func (k *Keyring) Sign(peer types.ProcessID, frame []byte) []byte {
	return k.linkMAC(peer, frame)
}

// Check verifies a frame claimed to come from peer to the keyring owner.
func (k *Keyring) Check(peer types.ProcessID, frame, mac []byte) error {
	if !hmac.Equal(k.linkMAC(peer, frame), mac) {
		return fmt.Errorf("auth: bad MAC on frame from %v to %v", peer, k.owner)
	}
	return nil
}

// DealerKeys authenticates common-coin shares: the dealer MACs the share it
// deals to process p for round r under a key derived from the dealer secret,
// and verifiers (who also hold the dealer secret, per Rabin's trusted-dealer
// model) check it. Byzantine processes hold the secret too but a share MAC
// binds (process, round, share bytes), so they can only replay their own
// genuine shares — they cannot attribute a fabricated share to another
// process or another round.
//
// The share key is derived once, and every MAC reuses one keyed HMAC state,
// message buffer and sum, so verifying a share allocates nothing. That
// state makes DealerKeys unsafe for concurrent use: callers serialize.
type DealerKeys struct {
	mac hash.Hash // HMAC-SHA256 keyed with DeriveKey(secret, "share")
	msg []byte
	sum [MACSize]byte
}

// NewDealerKeys returns share-authentication keys bound to a dealer secret.
// The secret is not retained.
func NewDealerKeys(secret []byte) *DealerKeys {
	return &DealerKeys{mac: hmac.New(sha256.New, DeriveKey(secret, "share"))}
}

// shareMAC computes the MAC binding share to (p, round) into d.sum and
// returns it; the result is overwritten by the next call.
func (d *DealerKeys) shareMAC(p types.ProcessID, round int, share string) []byte {
	d.msg = binary.BigEndian.AppendUint64(d.msg[:0], uint64(int64(p)))
	d.msg = binary.BigEndian.AppendUint64(d.msg, uint64(int64(round)))
	d.msg = append(d.msg, share...)
	d.mac.Reset()
	d.mac.Write(d.msg)
	return d.mac.Sum(d.sum[:0])
}

// SignShare MACs the share dealt to process p for the given round.
func (d *DealerKeys) SignShare(p types.ProcessID, round int, share string) string {
	return string(d.shareMAC(p, round, share))
}

// VerifyShare reports whether mac authenticates share as dealt to p for
// round.
func (d *DealerKeys) VerifyShare(p types.ProcessID, round int, share, mac string) bool {
	return hmac.Equal(d.shareMAC(p, round, share), []byte(mac))
}

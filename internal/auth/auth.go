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

// Verify reports whether mac is a valid HMAC-SHA256 of msg under key, in
// constant time.
func Verify(key, msg, mac []byte) bool {
	return hmac.Equal(MAC(key, msg), mac)
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
type Keyring struct {
	owner  types.ProcessID
	master []byte
}

// NewKeyring returns the keyring of process owner under the given system
// master secret. All processes of a deployment must share the same master.
func NewKeyring(master []byte, owner types.ProcessID) *Keyring {
	m := make([]byte, len(master))
	copy(m, master)
	return &Keyring{owner: owner, master: m}
}

// Owner returns the process this keyring belongs to.
func (k *Keyring) Owner() types.ProcessID { return k.owner }

// linkKey returns the symmetric key for the link between a and b.
func (k *Keyring) linkKey(a, b types.ProcessID) []byte {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return DeriveKey(k.master, "link", int(lo), int(hi))
}

// Sign MACs a frame sent from the keyring owner to peer.
func (k *Keyring) Sign(peer types.ProcessID, frame []byte) []byte {
	return MAC(k.linkKey(k.owner, peer), frame)
}

// Check verifies a frame claimed to come from peer to the keyring owner.
func (k *Keyring) Check(peer types.ProcessID, frame, mac []byte) error {
	if !Verify(k.linkKey(k.owner, peer), frame, mac) {
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
type DealerKeys struct {
	secret []byte
}

// NewDealerKeys returns share-authentication keys bound to a dealer secret.
func NewDealerKeys(secret []byte) *DealerKeys {
	s := make([]byte, len(secret))
	copy(s, secret)
	return &DealerKeys{secret: s}
}

func (d *DealerKeys) shareMsg(p types.ProcessID, round int, share []byte) []byte {
	msg := make([]byte, 0, 16+len(share))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(int64(p)))
	msg = append(msg, b[:]...)
	binary.BigEndian.PutUint64(b[:], uint64(int64(round)))
	msg = append(msg, b[:]...)
	return append(msg, share...)
}

// SignShare MACs the share dealt to process p for the given round.
func (d *DealerKeys) SignShare(p types.ProcessID, round int, share []byte) []byte {
	return MAC(DeriveKey(d.secret, "share"), d.shareMsg(p, round, share))
}

// VerifyShare reports whether mac authenticates share as dealt to p for
// round.
func (d *DealerKeys) VerifyShare(p types.ProcessID, round int, share, mac []byte) bool {
	return Verify(DeriveKey(d.secret, "share"), d.shareMsg(p, round, share), mac)
}

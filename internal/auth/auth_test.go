package auth

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestMACVerify(t *testing.T) {
	key := []byte("k")
	msg := []byte("hello")
	mac := MAC(key, msg)
	if len(mac) != MACSize {
		t.Fatalf("MAC length = %d, want %d", len(mac), MACSize)
	}
	if !Verify(key, msg, mac) {
		t.Error("Verify rejected a genuine MAC")
	}
	if Verify([]byte("other"), msg, mac) {
		t.Error("Verify accepted a MAC under the wrong key")
	}
	if Verify(key, []byte("hellO"), mac) {
		t.Error("Verify accepted a MAC for a different message")
	}
	mac[0] ^= 1
	if Verify(key, msg, mac) {
		t.Error("Verify accepted a tampered MAC")
	}
}

func TestDeriveKeyDomainSeparation(t *testing.T) {
	master := []byte("master-secret")
	tests := []struct {
		name   string
		a, b   []byte
		differ bool
	}{
		{"same inputs agree", DeriveKey(master, "x", 1, 2), DeriveKey(master, "x", 1, 2), false},
		{"label separates", DeriveKey(master, "x", 1), DeriveKey(master, "y", 1), true},
		{"parts separate", DeriveKey(master, "x", 1, 2), DeriveKey(master, "x", 2, 1), true},
		{"part count separates", DeriveKey(master, "x", 1), DeriveKey(master, "x", 1, 0), true},
		{"master separates", DeriveKey(master, "x", 1), DeriveKey([]byte("m2"), "x", 1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := !bytes.Equal(tt.a, tt.b); got != tt.differ {
				t.Errorf("keys differ = %v, want %v", got, tt.differ)
			}
		})
	}
}

func TestKeyringSymmetry(t *testing.T) {
	master := []byte("sys")
	k1 := NewKeyring(master, 1)
	k2 := NewKeyring(master, 2)
	frame := []byte("payload")
	mac := k1.Sign(2, frame)
	if err := k2.Check(1, frame, mac); err != nil {
		t.Fatalf("peer rejected a genuine frame: %v", err)
	}
	if k1.Owner() != 1 {
		t.Errorf("Owner() = %v", k1.Owner())
	}
}

// TestKeyringPeerKeysMatchDerived: link keys derived at construction sign
// and check exactly as keys derived on use do, for peers named and not.
func TestKeyringPeerKeysMatchDerived(t *testing.T) {
	master := []byte("sys")
	cached := NewKeyring(master, 2, 1, 2, 3)
	plain := NewKeyring(master, 2)
	frame := []byte("vote")
	for _, peer := range []types.ProcessID{1, 2, 3, 9} {
		mac := cached.Sign(peer, frame)
		if !bytes.Equal(mac, plain.Sign(peer, frame)) {
			t.Errorf("Sign to %v differs between a named peer and a derived key", peer)
		}
		if err := NewKeyring(master, peer, 2).Check(2, frame, mac); err != nil {
			t.Errorf("peer %v rejected a frame signed with a cached key: %v", peer, err)
		}
	}
}

func TestKeyringRejectsForgery(t *testing.T) {
	master := []byte("sys")
	k1 := NewKeyring(master, 1)
	k2 := NewKeyring(master, 2)
	k3 := NewKeyring(master, 3) // the adversary
	frame := []byte("transfer all funds")

	t.Run("wrong link key", func(t *testing.T) {
		mac := k3.Sign(2, frame) // p3 signs for link (3,2)
		if err := k2.Check(1, frame, mac); err == nil {
			t.Error("p2 accepted a frame from p3 as if from p1")
		}
	})
	t.Run("tampered frame", func(t *testing.T) {
		mac := k1.Sign(2, frame)
		if err := k2.Check(1, append([]byte("x"), frame...), mac); err == nil {
			t.Error("tampered frame accepted")
		}
	})
	t.Run("replayed to wrong receiver", func(t *testing.T) {
		mac := k1.Sign(2, frame)
		if err := k3.Check(1, frame, mac); err == nil {
			t.Error("p3 accepted a frame MACed for link (1,2)")
		}
	})
}

func TestKeyringIsolatesMaster(t *testing.T) {
	master := []byte("abc")
	k := NewKeyring(master, 1)
	master[0] = 'z' // caller mutates its copy
	other := NewKeyring([]byte("abc"), 1)
	frame := []byte("f")
	if !bytes.Equal(k.Sign(2, frame), other.Sign(2, frame)) {
		t.Error("Keyring did not copy the master secret at construction")
	}
}

func TestDealerKeys(t *testing.T) {
	d := NewDealerKeys([]byte("dealer"))
	share := "\x01\x02\x03"
	mac := d.SignShare(4, 7, share)

	tests := []struct {
		name  string
		p     types.ProcessID
		round int
		share string
		mac   string
		want  bool
	}{
		{"genuine", 4, 7, share, mac, true},
		{"wrong process", 5, 7, share, mac, false},
		{"wrong round", 4, 8, share, mac, false},
		{"wrong share", 4, 7, "\x09\x09\x09", mac, false},
		{"truncated mac", 4, 7, share, mac[:10], false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := d.VerifyShare(tt.p, tt.round, tt.share, tt.mac); got != tt.want {
				t.Errorf("VerifyShare = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDealerKeysIsolateSecret(t *testing.T) {
	secret := []byte("s")
	d := NewDealerKeys(secret)
	secret[0] = 'x'
	d2 := NewDealerKeys([]byte("s"))
	if d.SignShare(1, 1, "\x01") != d2.SignShare(1, 1, "\x01") {
		t.Error("DealerKeys did not copy the secret at construction")
	}
}

// TestMACPropertyRoundTrip fuzzes key/message pairs.
func TestMACPropertyRoundTrip(t *testing.T) {
	prop := func(key, msg []byte) bool {
		return Verify(key, msg, MAC(key, msg))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestMACPropertyKeySensitivity: distinct keys (almost surely) yield distinct
// MACs for the same message.
func TestMACPropertyKeySensitivity(t *testing.T) {
	prop := func(k1, k2, msg []byte) bool {
		if bytes.Equal(k1, k2) {
			return true
		}
		return !bytes.Equal(MAC(k1, msg), MAC(k2, msg))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

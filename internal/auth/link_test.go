package auth

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/types"
)

// linkPeers are the peers FuzzLinkMAC's keyrings name at construction; a
// script's other peers take the derive-on-use path.
var linkPeers = types.Processes(4)

// refLinkMAC is the link MAC computed from scratch: derive the link key of
// (owner, peer), then one fresh HMAC over the frame.
func refLinkMAC(master []byte, owner, peer types.ProcessID, frame []byte) []byte {
	lo, hi := min(owner, peer), max(owner, peer)
	return MAC(DeriveKey(master, "link", int(lo), int(hi)), frame)
}

// linkMACSeeds is FuzzLinkMAC's checked-in seed corpus: a master secret and
// a script of sign and check calls (see FuzzLinkMAC for the encoding).
func linkMACSeeds() map[string][2]string {
	return map[string][2]string{
		// Owner 2 signs to peer 3, then checks the genuine MAC from peer 3.
		"sign-check": {"sys", "\x02\x00\x03\x04vote\x01\x03\x04vote"},
		// A genuine check, a flipped byte, then the genuine one again: a
		// rejected MAC must leave nothing behind in the reused state.
		"forged-between": {"m", "\x01\x01\x02\x02ab\x0b\x02\x02ab\x01\x02\x02ab"},
		// Links to processes not named at construction (9 and -3), the
		// owner's link to itself with a truncated MAC, then a genuine check
		// from 9.
		"outsider-peers": {"k", "\x03\x00\x09\x01x\x00\xfd\x01x\x05\x03\x00\x01\x09\x01x"},
		// An empty master, a long frame, then an empty one.
		"empty-master": {"", "\x04\x00\x01\x0f0123456789abcde\x01\x02\x00"},
		// Check before any sign: the state's first use is a check.
		"check-first": {"sys", "\x01\x01\x04\x03abc\x00\x04\x03abc"},
	}
}

// TestLinkMACCorpusCurrent: the checked-in seed corpus is linkMACSeeds, one
// file per name.
func TestLinkMACCorpusCurrent(t *testing.T) {
	seeds := linkMACSeeds()
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLinkMAC", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", seeds[name][0], seeds[name][1]); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

// FuzzLinkMAC drives one Keyring through an interleaving of Sign and Check
// calls and holds every result to the from-scratch MAC, so the reused HMAC
// states, message buffer and sum can never carry one call's bytes into the
// next. The script's first byte (signed) is the owner; then comes a run of
// calls, each an op byte, a peer byte (signed), a frame length byte (mod 16)
// and the frame. Op bit 0 selects check over sign; for a check, bit 1 flips
// a byte of the genuine MAC (at bits 3–7) and bit 2 truncates it, and the
// verdict must be nil only for the untouched MAC.
func FuzzLinkMAC(f *testing.F) {
	f.Fuzz(func(t *testing.T, master, script []byte) {
		if len(script) == 0 {
			return
		}
		owner := types.ProcessID(int8(script[0]))
		k := NewKeyring(master, owner, linkPeers...)
		for script = script[1:]; len(script) >= 3; {
			op, peer := script[0], types.ProcessID(int8(script[1]))
			n := min(int(script[2])%16, len(script)-3)
			frame := script[3 : 3+n]
			script = script[3+n:]

			want := refLinkMAC(master, owner, peer, frame)
			if op&1 == 0 {
				if got := k.Sign(peer, frame); string(got) != string(want) {
					t.Fatalf("Sign(%v, %q) = %x, want %x", peer, frame, got, want)
				}
				continue
			}
			mac, genuine := want, true
			if op&2 != 0 {
				mac[int(op>>3)%len(mac)] ^= 1
				genuine = false
			}
			if op&4 != 0 {
				mac = mac[:len(mac)-1]
				genuine = false
			}
			if err := k.Check(peer, frame, mac); (err == nil) != genuine {
				t.Fatalf("Check(%v, %q, %x) = %v, want genuine %v", peer, frame, mac, err, genuine)
			}
		}
	})
}

// TestLinkMACAllocFree: on a link named at construction, Sign and Check
// allocate nothing.
func TestLinkMACAllocFree(t *testing.T) {
	k := NewKeyring([]byte("sys"), 2, linkPeers...)
	frame := []byte("checkpoint vote")
	mac := append([]byte(nil), k.Sign(3, frame)...)
	if allocs := testing.AllocsPerRun(100, func() { k.Sign(3, frame) }); allocs != 0 {
		t.Errorf("Sign cost %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if k.Check(3, frame, mac) != nil {
			t.Fatal("genuine MAC refused")
		}
	}); allocs != 0 {
		t.Errorf("Check cost %.1f allocs, want 0", allocs)
	}
}

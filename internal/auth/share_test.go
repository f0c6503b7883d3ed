package auth

import (
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/types"
)

// refShareMAC is the share MAC computed from scratch: derive the share key,
// then one fresh HMAC over (process, round, share).
func refShareMAC(secret []byte, p types.ProcessID, round int, share string) string {
	msg := binary.BigEndian.AppendUint64(nil, uint64(int64(p)))
	msg = binary.BigEndian.AppendUint64(msg, uint64(int64(round)))
	msg = append(msg, share...)
	return string(MAC(DeriveKey(secret, "share"), msg))
}

// shareMACSeeds is FuzzShareMAC's checked-in seed corpus: a secret and a
// script of sign and verify calls (see FuzzShareMAC for the encoding).
func shareMACSeeds() map[string][2]string {
	return map[string][2]string{
		// Sign, then verify the genuine MAC.
		"sign-verify": {"dealer", "\x00\x04\x07\x02\x01\x02\x01\x04\x07\x02\x01\x02"},
		// A genuine verify, a flipped byte, then the genuine one again: a
		// rejected MAC must leave nothing behind in the reused state.
		"forged-between": {"s", "\x01\x01\x01\x01\x05\x03\x01\x01\x01\x05\x01\x01\x01\x01\x05"},
		// A truncated MAC, then a long share, then an empty one.
		"truncated-then-long": {"k", "\x05\x02\x09\x01\xaa\x00\x03\x09\x07abcdefg\x01\x03\x09\x00"},
		// Negative process and round fields, an empty secret.
		"negative-fields": {"", "\x00\xff\xfe\x01\x00\x01\xff\xfe\x01\x00"},
		// Verify before any sign: the state's first use is a verify.
		"verify-first": {"dealer", "\x03\x02\x02\x00\x01\x02\x02\x00\x00\x02\x02\x00"},
	}
}

// TestShareMACCorpusCurrent: the checked-in seed corpus is shareMACSeeds,
// one file per name.
func TestShareMACCorpusCurrent(t *testing.T) {
	seeds := shareMACSeeds()
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzShareMAC", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", seeds[name][0], seeds[name][1]); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

// FuzzShareMAC drives one DealerKeys through an interleaving of SignShare
// and VerifyShare calls and holds every result to the from-scratch MAC, so
// the reused HMAC state, message buffer and sum can never carry one call's
// bytes into the next. The script is a run of calls, each an op byte, a
// process and a round byte (signed), a share length byte (mod 16) and the
// share. Op bit 0 selects verify over sign; for a verify, bit 1 flips a
// byte of the genuine MAC (at bits 3–7) and bit 2 truncates it, and the
// verdict must be true only for the untouched MAC.
func FuzzShareMAC(f *testing.F) {
	f.Fuzz(func(t *testing.T, secret, script []byte) {
		d := NewDealerKeys(secret)
		for len(script) >= 4 {
			op := script[0]
			p := types.ProcessID(int8(script[1]))
			round := int(int8(script[2]))
			n := min(int(script[3])%16, len(script)-4)
			share := string(script[4 : 4+n])
			script = script[4+n:]

			want := refShareMAC(secret, p, round, share)
			if op&1 == 0 {
				if got := d.SignShare(p, round, share); got != want {
					t.Fatalf("SignShare(%v, %d, %q) = %x, want %x", p, round, share, got, want)
				}
				continue
			}
			mac, genuine := []byte(want), true
			if op&2 != 0 {
				mac[int(op>>3)%len(mac)] ^= 1
				genuine = false
			}
			if op&4 != 0 {
				mac = mac[:len(mac)-1]
				genuine = false
			}
			if got := d.VerifyShare(p, round, share, string(mac)); got != genuine {
				t.Fatalf("VerifyShare(%v, %d, %q, %x) = %v, want %v", p, round, share, mac, got, genuine)
			}
		}
	})
}

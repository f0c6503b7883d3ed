package auth

import (
	"crypto/hmac"

	"repro/internal/types"
)

// Verify reports whether mac is a valid HMAC-SHA256 of msg under key, in
// constant time.
func Verify(key, msg, mac []byte) bool {
	return hmac.Equal(MAC(key, msg), mac)
}

// SignShare MACs the share dealt to process p for the given round.
func (d *DealerKeys) SignShare(p types.ProcessID, round int, share string) string {
	return string(d.AppendSignShare(nil, p, round, share))
}

package auth

import "crypto/hmac"

// Verify reports whether mac is a valid HMAC-SHA256 of msg under key, in
// constant time.
func Verify(key, msg, mac []byte) bool {
	return hmac.Equal(MAC(key, msg), mac)
}

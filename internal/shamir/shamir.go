// Package shamir implements Shamir secret sharing over GF(2^8), the
// mechanism the Rabin-style common-coin dealer uses to predistribute one
// unpredictable bit per round (internal/coin).
//
// A secret of L bytes is shared byte-wise: for each byte, the dealer samples
// a uniformly random polynomial of degree `threshold−1` whose constant term
// is the secret byte, and hands process i the evaluation at x = i. Any
// `threshold` shares reconstruct the secret by Lagrange interpolation at 0;
// any fewer reveal nothing (every candidate secret remains exactly as
// likely), which is the coin's unpredictability property.
package shamir

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/gf256"
)

// Share is one participant's fragment of a shared secret. X is the non-zero
// evaluation point (the participant index), Y the byte-wise evaluations.
type Share struct {
	X byte
	Y []byte
}

// String implements fmt.Stringer.
func (s Share) String() string { return fmt.Sprintf("share(x=%d, %d bytes)", s.X, len(s.Y)) }

// Split and Reconstruct errors.
var (
	ErrBadThreshold  = errors.New("shamir: threshold out of range")
	ErrTooManyShares = errors.New("shamir: at most 255 shares over GF(2^8)")
	ErrEmptySecret   = errors.New("shamir: empty secret")
	ErrTooFewShares  = errors.New("shamir: not enough shares")
	ErrBadShares     = errors.New("shamir: malformed shares")
)

// Split shares secret into n shares such that any `threshold` of them
// reconstruct it and fewer reveal nothing. It requires
// 1 ≤ threshold ≤ n ≤ 255 and a non-empty secret. rng supplies the
// polynomial coefficients; a deterministic rng gives deterministic shares
// (used for reproducible experiments).
func Split(secret []byte, n, threshold int, rng *rand.Rand) ([]Share, error) {
	switch {
	case len(secret) == 0:
		return nil, ErrEmptySecret
	case n > 255:
		return nil, fmt.Errorf("%w: n = %d", ErrTooManyShares, n)
	case threshold < 1 || threshold > n:
		return nil, fmt.Errorf("%w: threshold = %d with n = %d", ErrBadThreshold, threshold, n)
	}
	shares := make([]Share, n)
	for i := range shares {
		shares[i] = Share{X: byte(i + 1), Y: make([]byte, len(secret))}
	}
	coeffs := make([]byte, threshold)
	for b, sb := range secret {
		coeffs[0] = sb
		for c := 1; c < threshold; c++ {
			coeffs[c] = byte(rng.Intn(256))
		}
		for i := range shares {
			shares[i].Y[b] = gf256.EvalPoly(coeffs, shares[i].X)
		}
	}
	return shares, nil
}

// Reconstruct recovers the secret from at least `threshold` shares. The
// first `threshold` usable shares — distinct non-zero X, non-empty Y of a
// common width — are interpolated; malformed entries (zero or repeated X,
// outlier width) are skipped rather than fatal, so a poisoned prefix cannot
// mask valid shares later in the slice. Candidate widths are tried in order
// of first appearance and the first width with `threshold` usable shares
// wins, deterministically.
// Extra shares beyond the first `threshold` usable ones are ignored (they
// are redundant for a correct dealing; verifying consistency is the
// caller's job via share authentication — see internal/coin). If fewer than
// `threshold` usable shares exist, Reconstruct reports ErrBadShares.
func Reconstruct(shares []Share, threshold int) ([]byte, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("%w: threshold = %d", ErrBadThreshold, threshold)
	}
	if len(shares) < threshold {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), threshold)
	}
	// Candidate widths in order of first appearance: a single wrong-width
	// share cannot dictate the width and veto a valid majority behind it.
	// Honest dealings have one width, so a few slots on the stack suffice.
	var widthBuf [4]int
	widths := widthBuf[:0]
	for _, s := range shares {
		if len(s.Y) == 0 {
			continue
		}
		known := false
		for _, w := range widths {
			if w == len(s.Y) {
				known = true
				break
			}
		}
		if !known {
			widths = append(widths, len(s.Y))
		}
	}
	// Distinct non-zero X values number at most 255, so the selection
	// (indices into shares) and its evaluation points fit on the stack.
	var useBuf [255]int
	var xsBuf [255]byte
	use, xs := useBuf[:0], xsBuf[:0]
	for _, width := range widths {
		use, xs = use[:0], xs[:0]
		var seen [256]bool
		for i, s := range shares {
			if len(use) == threshold {
				break
			}
			if s.X == 0 || seen[s.X] || len(s.Y) != width {
				continue
			}
			seen[s.X] = true
			use = append(use, i)
			xs = append(xs, s.X)
		}
		if len(use) == threshold {
			break
		}
	}
	if len(use) < threshold {
		return nil, fmt.Errorf("%w: only %d of %d shares usable (need %d)",
			ErrBadShares, len(use), len(shares), threshold)
	}
	width := len(shares[use[0]].Y)
	// Precompute the Lagrange basis at 0 once; it is shared by all bytes.
	var basisBuf [255]byte
	basis := gf256.AppendLagrange(basisBuf[:0], 0, xs)
	secret := make([]byte, width)
	for b := 0; b < width; b++ {
		var acc byte
		for i, at := range use {
			acc = gf256.Add(acc, gf256.Mul(shares[at].Y[b], basis[i]))
		}
		secret[b] = acc
	}
	return secret, nil
}

// Package rscode implements a systematic Reed–Solomon erasure code over
// GF(2^8) (internal/gf256), the coding substrate for AVID-style coded
// reliable broadcast (internal/rbc's coded mode).
//
// A body of L bytes is striped column-wise into k data shards of
// ⌈L/k⌉ bytes each (zero-padded), and extended to n total shards by
// evaluating, for every byte column, the unique degree-(k−1) polynomial
// through the k data points. Shard i lives at evaluation point x = i+1
// (x = 0 is reserved: it would leak a raw interpolation target), so the
// code is systematic — shards 0..k−1 are the body's bytes verbatim, and
// any k of the n shards reconstruct every column by Lagrange
// interpolation. n is capped at 255 by the field size.
//
// Both directions are sums of shards scaled by Lagrange coefficients, so
// the byte work is done shard-at-a-time by gf256.MulAddSlice (dst ^= c·src,
// vectorised where the CPU allows): encoding makes one pass per (parity
// shard, data shard) pair with coefficients precomputed in New, and decoding
// makes k passes per missing data shard with coefficients computed once per
// call. Only the coefficients use scalar field arithmetic.
//
// Each direction has one implementation, in append form: AppendSplit lays
// the n shards out back to back after dst, and AppendReconstruct appends the
// body, so a caller that keeps its buffers (coded RBC encodes and decodes
// once per broadcast at every process) allocates nothing once they have
// grown, and AppendReconstruct's own bookkeeping stays on the stack (up to
// 16 data shards). Split and Reconstruct are the same calls into fresh
// buffers, kept for callers that want independent results — tests and the
// codec's throughput probes.
package rscode

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/gf256"
)

// Code is an (n, k) systematic Reed–Solomon code: k data shards, n total.
// It is immutable after New and safe for concurrent use.
type Code struct {
	n, k int
	// parityBasis[p][d] is the Lagrange coefficient mapping data shard d to
	// parity shard p (evaluation at x = k+p+1 of the basis polynomial that
	// is 1 at x = d+1 and 0 at the other data points). Precomputed once so
	// Encode is pure table arithmetic.
	parityBasis [][]byte
}

// Errors reported by New, Encode, and Decode.
var (
	ErrBadParams    = errors.New("rscode: invalid code parameters")
	ErrBadShards    = errors.New("rscode: malformed shards")
	ErrTooFewShards = errors.New("rscode: not enough shards to decode")
)

// New constructs an (n, k) code. It requires 1 ≤ k ≤ n ≤ 255.
func New(n, k int) (*Code, error) {
	if k < 1 || n < k || n > 255 {
		return nil, fmt.Errorf("%w: n=%d k=%d (need 1 ≤ k ≤ n ≤ 255)", ErrBadParams, n, k)
	}
	c := &Code{n: n, k: k}
	if n > k {
		var xsBuf [255]byte
		xs := xsBuf[:k]
		for d := range xs {
			xs[d] = point(d)
		}
		c.parityBasis = make([][]byte, n-k)
		for p := range c.parityBasis {
			c.parityBasis[p] = gf256.AppendLagrange(make([]byte, 0, k), point(k+p), xs)
		}
	}
	return c, nil
}

// N returns the total number of shards.
func (c *Code) N() int { return c.n }

// K returns the number of data shards (the decode threshold).
func (c *Code) K() int { return c.k }

// point maps shard index i (0-based) to its field evaluation point.
func point(i int) byte { return byte(i + 1) }

// ShardLen returns the per-shard byte length for a body of bodyLen bytes:
// ⌈bodyLen/k⌉, and 1 for an empty body so every shard is non-empty on the
// wire (an empty broadcast still needs a frame to vote on).
func (c *Code) ShardLen(bodyLen int) int {
	if bodyLen <= 0 {
		return 1
	}
	return (bodyLen + c.k - 1) / c.k
}

// AppendSplit appends the n shards of body to dst, back to back, and returns
// the extended slice: shard i is the i-th run of ShardLen(len(body)) bytes
// after the old len(dst). The first k shards are the body striped in order
// (zero-padded at the tail); the remaining n−k are parity. Whatever dst's
// spare capacity held is overwritten, so a reused buffer needs no clearing;
// body must not overlap that capacity.
func (c *Code) AppendSplit(dst, body []byte) []byte {
	shardLen := c.ShardLen(len(body))
	base := len(dst)
	dst = slices.Grow(dst, c.n*shardLen)[:base+c.n*shardLen]
	out := dst[base:]
	// The data shards are the body's consecutive shardLen-byte runs, so the
	// systematic half is one copy; the padding and the parity accumulators
	// start at zero.
	copy(out, body)
	clear(out[len(body):])
	for p, basis := range c.parityBasis {
		parity := out[(c.k+p)*shardLen : (c.k+p+1)*shardLen]
		for d, coef := range basis {
			gf256.MulAddSlice(coef, out[d*shardLen:(d+1)*shardLen], parity)
		}
	}
	return dst
}

// Split is AppendSplit into a fresh buffer, cut into its n shards.
func (c *Code) Split(body []byte) [][]byte {
	shardLen := c.ShardLen(len(body))
	backing := c.AppendSplit(nil, body)
	shards := make([][]byte, c.n)
	for i := range shards {
		shards[i] = backing[i*shardLen : (i+1)*shardLen]
	}
	return shards
}

// AppendReconstruct recovers the first bodyLen bytes of the original body
// from any k shards and appends them to dst. indices[i] is the 0-based shard
// index of shards[i]; indices must be distinct and in [0, n), shards
// equal-length and non-empty, and bodyLen at most k·shardLen. Extra shards
// beyond the first k usable are ignored. On error dst is returned unchanged.
// As with AppendSplit, dst's spare capacity may hold anything and must not
// overlap the shards.
func (c *Code) AppendReconstruct(dst []byte, indices []int, shards [][]byte, bodyLen int) ([]byte, error) {
	if len(indices) != len(shards) {
		return dst, fmt.Errorf("%w: %d indices for %d shards", ErrBadShards, len(indices), len(shards))
	}
	if len(shards) < c.k {
		return dst, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(shards), c.k)
	}
	// Select the first k distinct valid shards (mirrors shamir.Reconstruct's
	// scan: a malformed entry is skipped, not fatal). The selection lives on
	// the stack up to maxStackShards as the shards' evaluation points and
	// bodies; seen is a bitset over the ≤ 255 indices.
	var (
		seen     [4]uint64
		xArr     [maxStackShards]byte
		shardArr [maxStackShards][]byte
		coefArr  [maxStackShards]byte
	)
	useX, useShard := xArr[:0], shardArr[:0]
	shardLen := 0
	for i, idx := range indices {
		if len(useX) == c.k {
			break
		}
		if idx < 0 || idx >= c.n || seen[idx/64]&(1<<(idx%64)) != 0 || len(shards[i]) == 0 {
			continue
		}
		if shardLen == 0 {
			shardLen = len(shards[i])
		} else if len(shards[i]) != shardLen {
			continue
		}
		seen[idx/64] |= 1 << (idx % 64)
		useX = append(useX, point(idx))
		useShard = append(useShard, shards[i])
	}
	if len(useX) < c.k {
		return dst, fmt.Errorf("%w: only %d of %d shards usable (need %d)",
			ErrTooFewShards, len(useX), len(shards), c.k)
	}
	if bodyLen < 0 || bodyLen > c.k*shardLen {
		return dst, fmt.Errorf("%w: bodyLen %d exceeds %d×%d", ErrBadShards, bodyLen, c.k, shardLen)
	}
	base := len(dst)
	dst = slices.Grow(dst, bodyLen)[:base+bodyLen]
	body := dst[base:]
	// Every held data shard is its stretch of the body verbatim (the code is
	// systematic); when all the needed ones are held, that is the decode.
	for i, x := range useX {
		if d := int(x) - 1; d < c.k && d*shardLen < bodyLen {
			copy(body[d*shardLen:min((d+1)*shardLen, bodyLen)], useShard[i])
		}
	}
	// Each missing data shard d is the column polynomials interpolated at
	// x = d+1 from the k available points — k slice passes into its zeroed
	// stretch of the body, one Lagrange coefficient each.
	for d := 0; d < c.k && d*shardLen < bodyLen; d++ {
		if seen[d/64]&(1<<(d%64)) != 0 {
			continue
		}
		out := body[d*shardLen : min((d+1)*shardLen, bodyLen)]
		clear(out)
		for i, coef := range gf256.AppendLagrange(coefArr[:0], point(d), useX) {
			gf256.MulAddSlice(coef, useShard[i][:len(out)], out)
		}
	}
	return dst, nil
}

// Reconstruct is AppendReconstruct into a fresh buffer.
func (c *Code) Reconstruct(indices []int, shards [][]byte, bodyLen int) ([]byte, error) {
	return c.AppendReconstruct(nil, indices, shards, bodyLen)
}

// maxStackShards bounds the shard selection AppendReconstruct keeps in stack
// arrays; a code with more data shards spills it to the heap.
const maxStackShards = 16

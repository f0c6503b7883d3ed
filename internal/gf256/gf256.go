// Package gf256 implements arithmetic in the finite field GF(2^8) with the
// AES reduction polynomial x^8 + x^4 + x^3 + x + 1 (0x11B). It is the
// algebraic substrate for the Shamir secret sharing used by the Rabin-style
// common coin dealer (internal/shamir, internal/coin) and for the
// Reed–Solomon code under coded reliable broadcast (internal/rscode).
//
// Scalar multiplication and inversion are table-driven via discrete
// logarithms with the generator 0x03: a few lookups per operation, which is
// all the coin's per-share work needs. Bulk coding work goes through one
// slice kernel instead, MulAddSlice (dst ^= c·src), which never touches the
// log tables. It reads a 32-byte table per coefficient c (c times each low
// nibble, c times each high nibble), so a product is two lookups and a XOR:
// c·s = c·(s & 15) ^ c·(s & 0xF0). On amd64 CPUs with AVX2 the two lookups
// are VPSHUFB over 32 bytes at a time (mul_amd64.s, selected once at package
// init from CPUID); elsewhere, and for the tail, a pure-Go loop does them a
// byte at a time. The tables are built on the first MulAddSlice call.
package gf256

import "sync"

// poly is the AES reduction polynomial (without the x^8 term, applied during
// reduction).
const poly = 0x1B

// generator 0x03 is a primitive element of GF(2^8) under poly.
const generator = 0x03

// tables holds the exp/log tables for the multiplicative group.
type tables struct {
	exp [512]byte // doubled so exp[log a + log b] needs no modular reduction
	log [256]byte
}

var _tables = buildTables()

func buildTables() *tables {
	t := &tables{}
	x := byte(1)
	for i := 0; i < 255; i++ {
		t.exp[i] = x
		t.log[x] = byte(i)
		x = mulSlow(x, generator)
	}
	for i := 255; i < 512; i++ {
		t.exp[i] = t.exp[i-255]
	}
	return t
}

// mulSlow is carry-less "Russian peasant" multiplication with reduction; it
// seeds the tables and serves as the reference implementation for tests.
func mulSlow(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= poly
		}
		b >>= 1
	}
	return p
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse, so Sub
// is the same operation.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a−b in GF(2^8) (identical to Add in characteristic 2).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a·b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+int(_tables.log[b])]
}

// nibbleTable holds one coefficient's products with every nibble:
// [0][x] = c·x and [1][x] = c·(x<<4) for x < 16. The layout (low half, then
// high half, 16 bytes each) is what mul_amd64.s loads.
type nibbleTable [2][16]byte

// mulTables[c] is c's nibble table: 256 × 32 bytes = 8 KiB. It is built on
// first use rather than at init, so a process that never codes does not pay
// for computing and first touching 8 KiB at start-up.
var (
	mulTablesOnce sync.Once
	mulTables     *[256]nibbleTable
)

// nibbles returns c's nibble table.
func nibbles(c byte) *nibbleTable {
	mulTablesOnce.Do(buildMulTables)
	return &mulTables[c]
}

func buildMulTables() {
	t := new([256]nibbleTable)
	for c := 1; c < 256; c++ {
		for x := 1; x < 16; x++ {
			t[c][0][x] = Mul(byte(c), byte(x))
			t[c][1][x] = Mul(byte(c), byte(x<<4))
		}
	}
	mulTables = t
}

// MulAddSlice computes dst[i] ^= c·src[i] for every i < len(src): the one
// multiply-accumulate Reed–Solomon encoding and decoding are built from. It
// panics if dst is shorter than src.
func MulAddSlice(c byte, src, dst []byte) {
	dst = dst[:len(src)]
	if c == 0 {
		return
	}
	mulAddSlice(nibbles(c), src, dst)
}

// mulAddGeneric is the portable kernel: the tail of every vector pass, the
// whole pass on hosts without AVX2, and the reference the tests compare the
// vector path against. len(dst) must equal len(src).
func mulAddGeneric(t *nibbleTable, src, dst []byte) {
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] ^= t[0][s&15] ^ t[1][s>>4]
	}
}

// Div returns a/b in GF(2^8), and 0 if b is 0 (no panic: protocol code must
// treat division by zero as a validation failure before reaching here).
func Div(a, b byte) byte {
	if b == 0 || a == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+255-int(_tables.log[b])]
}

// EvalPoly evaluates the polynomial with the given coefficients (constant
// term first) at x, using Horner's rule.
func EvalPoly(coeffs []byte, x byte) byte {
	var y byte
	for i := len(coeffs) - 1; i >= 0; i-- {
		y = Add(Mul(y, x), coeffs[i])
	}
	return y
}

// AppendLagrange appends to dst the Lagrange coefficients at x of the points
// xs, which must be distinct: coefficient i is ∏(x−xs[j])/∏(xs[i]−xs[j])
// over j ≠ i, so the polynomial of degree below len(xs) taking the value y_i
// at xs[i] takes Σ y_i·coefficient_i at x.
func AppendLagrange(dst []byte, x byte, xs []byte) []byte {
	for i, xi := range xs {
		num, den := byte(1), byte(1)
		for j, xj := range xs {
			if j == i {
				continue
			}
			num = Mul(num, Sub(x, xj))
			den = Mul(den, Sub(xi, xj))
		}
		dst = append(dst, Div(num, den))
	}
	return dst
}

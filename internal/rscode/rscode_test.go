package rscode

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

func mustCode(t *testing.T, n, k int) *Code {
	t.Helper()
	c, err := New(n, k)
	if err != nil {
		t.Fatalf("New(%d, %d): %v", n, k, err)
	}
	return c
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, tt := range []struct{ n, k int }{
		{0, 0}, {4, 0}, {4, -1}, {3, 4}, {256, 4}, {300, 300},
	} {
		if _, err := New(tt.n, tt.k); !errors.Is(err, ErrBadParams) {
			t.Errorf("New(%d, %d) error = %v, want ErrBadParams", tt.n, tt.k, err)
		}
	}
	// Degenerate but legal corners.
	for _, tt := range []struct{ n, k int }{{1, 1}, {255, 255}, {255, 1}} {
		if _, err := New(tt.n, tt.k); err != nil {
			t.Errorf("New(%d, %d): %v", tt.n, tt.k, err)
		}
	}
}

func TestSystematicPrefix(t *testing.T) {
	c := mustCode(t, 7, 3)
	body := []byte("systematic prefix check!")
	shards := c.Split(body)
	if len(shards) != 7 {
		t.Fatalf("got %d shards", len(shards))
	}
	sl := c.ShardLen(len(body))
	for d := 0; d < 3; d++ {
		lo := d * sl
		hi := min((d+1)*sl, len(body))
		want := make([]byte, sl)
		copy(want, body[lo:hi])
		if !bytes.Equal(shards[d], want) {
			t.Errorf("data shard %d = %x, want %x", d, shards[d], want)
		}
	}
}

func TestRoundTripAllKSubsets(t *testing.T) {
	const n, k = 6, 3
	c := mustCode(t, n, k)
	body := []byte("any k of n shards reconstruct the body")
	shards := c.Split(body)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for l := j + 1; l < n; l++ {
				idxs := []int{i, j, l}
				sub := [][]byte{shards[i], shards[j], shards[l]}
				got, err := c.Reconstruct(idxs, sub, len(body))
				if err != nil {
					t.Fatalf("subset %v: %v", idxs, err)
				}
				if !bytes.Equal(got, body) {
					t.Fatalf("subset %v reconstructed %q", idxs, got)
				}
			}
		}
	}
}

// TestShardsArePolynomialEvaluations cross-checks the encoder against an
// independent power-based reference: for every byte column, shard i must be
// the value at x = i+1 of the polynomial whose coefficients come from
// interpreting the data column as evaluations — equivalently, the column of
// shards must lie on a single degree-(k−1) polynomial. We verify by
// explicitly building the coefficient vector from the data points and
// evaluating Σ c_m·x^m at every shard's point.
func TestShardsArePolynomialEvaluations(t *testing.T) {
	const n, k = 9, 4
	c := mustCode(t, n, k)
	rng := rand.New(rand.NewSource(99))
	body := make([]byte, 67*k+3) // 68-byte shards: two vector blocks and a tail
	rng.Read(body)
	shards := c.Split(body)
	sl := c.ShardLen(len(body))
	for col := 0; col < sl; col++ {
		// Solve for the degree-(k−1) coefficients through the data points
		// (point(d), shards[d][col]) by Gaussian elimination over GF(2^8).
		coeffs := solveVandermonde(t, k, func(d int) byte { return shards[d][col] })
		for i := 0; i < n; i++ {
			x := point(i)
			var want byte
			for m, cm := range coeffs {
				want = gf256.Add(want, gf256.Mul(cm, pow(x, m)))
			}
			if shards[i][col] != want {
				t.Fatalf("col %d shard %d: %#x off-polynomial (want %#x)", col, i, shards[i][col], want)
			}
		}
	}
}

// solveVandermonde returns the coefficients of the degree-(k−1) polynomial
// with p(point(d)) = y(d), via row reduction of the Vandermonde system built
// with pow (independent of the encoder's Lagrange machinery).
func solveVandermonde(t *testing.T, k int, y func(int) byte) []byte {
	t.Helper()
	// Augmented matrix rows: [x^0 x^1 ... x^(k-1) | y].
	rows := make([][]byte, k)
	for d := 0; d < k; d++ {
		row := make([]byte, k+1)
		for m := 0; m < k; m++ {
			row[m] = pow(point(d), m)
		}
		row[k] = y(d)
		rows[d] = row
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if rows[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			t.Fatal("singular Vandermonde system")
		}
		rows[col], rows[pivot] = rows[pivot], rows[col]
		inv := gf256.Div(1, rows[col][col])
		for m := col; m <= k; m++ {
			rows[col][m] = gf256.Mul(rows[col][m], inv)
		}
		for r := 0; r < k; r++ {
			if r == col || rows[r][col] == 0 {
				continue
			}
			f := rows[r][col]
			for m := col; m <= k; m++ {
				rows[r][m] = gf256.Add(rows[r][m], gf256.Mul(f, rows[col][m]))
			}
		}
	}
	coeffs := make([]byte, k)
	for d := 0; d < k; d++ {
		coeffs[d] = rows[d][k]
	}
	return coeffs
}

// pow returns x^m by repeated multiplication; x^0 = 1, including 0^0.
func pow(x byte, m int) byte {
	acc := byte(1)
	for range m {
		acc = gf256.Mul(acc, x)
	}
	return acc
}

// TestRoundTripProperty: any k-subset in any order reconstructs the body.
// Odd trials draw bodies up to 8 KiB, so shards cross the slice kernel's
// 32-byte vector blocks and end in every tail length.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		k := 1 + rng.Intn(n)
		c := mustCode(t, n, k)
		size := rng.Intn(64)
		if trial%2 == 1 {
			size = rng.Intn(8<<10 + 1)
		}
		body := make([]byte, size)
		rng.Read(body)
		shards := c.Split(body)
		// Random k-subset in random order.
		perm := rng.Perm(n)[:k]
		idxs := make([]int, k)
		sub := make([][]byte, k)
		for i, p := range perm {
			idxs[i] = p
			sub[i] = shards[p]
		}
		got, err := c.Reconstruct(idxs, sub, len(body))
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d): %v", trial, n, k, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("trial %d (n=%d k=%d): mismatch", trial, n, k)
		}
	}
}

func TestEmptyBody(t *testing.T) {
	c := mustCode(t, 4, 2)
	shards := c.Split(nil)
	for i, s := range shards {
		if len(s) != 1 {
			t.Fatalf("shard %d len = %d, want 1 (empty body still frames)", i, len(s))
		}
	}
	got, err := c.Reconstruct([]int{2, 3}, [][]byte{shards[2], shards[3]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("reconstructed %d bytes from empty body", len(got))
	}
}

func TestReconstructErrors(t *testing.T) {
	c := mustCode(t, 5, 3)
	body := []byte("errors")
	shards := c.Split(body)
	t.Run("too few", func(t *testing.T) {
		_, err := c.Reconstruct([]int{0, 1}, shards[:2], len(body))
		if !errors.Is(err, ErrTooFewShards) {
			t.Errorf("error = %v, want ErrTooFewShards", err)
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		_, err := c.Reconstruct([]int{0, 1}, shards[:3], len(body))
		if !errors.Is(err, ErrBadShards) {
			t.Errorf("error = %v, want ErrBadShards", err)
		}
	})
	t.Run("duplicate index skipped then insufficient", func(t *testing.T) {
		_, err := c.Reconstruct([]int{0, 0, 0}, [][]byte{shards[0], shards[0], shards[0]}, len(body))
		if !errors.Is(err, ErrTooFewShards) {
			t.Errorf("error = %v, want ErrTooFewShards", err)
		}
	})
	t.Run("out of range index skipped", func(t *testing.T) {
		got, err := c.Reconstruct([]int{7, 0, 1, 2}, [][]byte{shards[0], shards[0], shards[1], shards[2]}, len(body))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, body) {
			t.Error("valid tail should have reconstructed")
		}
	})
	t.Run("oversized bodyLen", func(t *testing.T) {
		_, err := c.Reconstruct([]int{0, 1, 2}, shards[:3], 3*c.ShardLen(len(body))+1)
		if !errors.Is(err, ErrBadShards) {
			t.Errorf("error = %v, want ErrBadShards", err)
		}
	})
}

// TestAppendSplitDirtyBuffer: AppendSplit after a garbage-filled prefix, into
// garbage-filled spare capacity, appends exactly Split's shards, at body
// lengths that leave the last data shard padded, full, or empty.
func TestAppendSplitDirtyBuffer(t *testing.T) {
	c := mustCode(t, 7, 3)
	const l = 5 // shard length for the two longest bodies
	for _, bodyLen := range []int{0, 1, 3*l - 1, 3 * l} {
		body := make([]byte, bodyLen)
		for i := range body {
			body[i] = byte(31*i + 1)
		}
		var want []byte
		for _, s := range c.Split(body) {
			want = append(want, s...)
		}
		dst := bytes.Repeat([]byte{0xEE}, 4+len(want)+9)[:4]
		got := c.AppendSplit(dst, body)
		if !bytes.Equal(got[:4], []byte{0xEE, 0xEE, 0xEE, 0xEE}) || !bytes.Equal(got[4:], want) {
			t.Errorf("bodyLen %d: AppendSplit = %x, want prefix then %x", bodyLen, got, want)
		}
		if &got[0] != &dst[0] {
			t.Errorf("bodyLen %d: AppendSplit reallocated a buffer with room", bodyLen)
		}
	}
}

// TestAppendAllocFree: with room in dst, AppendSplit allocates nothing, and
// neither does a parity-only AppendReconstruct (its shard selection and
// coefficients stay on the stack).
func TestAppendAllocFree(t *testing.T) {
	c := mustCode(t, 16, 6)
	body := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(body)
	buf := make([]byte, 0, c.N()*c.ShardLen(len(body)))
	if allocs := testing.AllocsPerRun(20, func() { buf = c.AppendSplit(buf[:0], body) }); allocs != 0 {
		t.Fatalf("AppendSplit with room allocates %v times", allocs)
	}
	shards := c.Split(body)
	idxs := []int{10, 11, 12, 13, 14, 15}
	sub := [][]byte{shards[10], shards[11], shards[12], shards[13], shards[14], shards[15]}
	out := make([]byte, 0, len(body))
	var err error
	if allocs := testing.AllocsPerRun(20, func() {
		out, err = c.AppendReconstruct(out[:0], idxs, sub, len(body))
	}); allocs != 0 || err != nil || !bytes.Equal(out, body) {
		t.Fatalf("AppendReconstruct with room: %v allocations, error %v, body intact %v",
			allocs, err, bytes.Equal(out, body))
	}
}

func BenchmarkSplit(b *testing.B) {
	c, _ := New(16, 6)
	body := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Split(body)
	}
}

func BenchmarkReconstructParityHeavy(b *testing.B) {
	c, _ := New(16, 6)
	body := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(body)
	shards := c.Split(body)
	// Worst case: all parity shards, no systematic fast path.
	idxs := []int{10, 11, 12, 13, 14, 15}
	sub := [][]byte{shards[10], shards[11], shards[12], shards[13], shards[14], shards[15]}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reconstruct(idxs, sub, len(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// hostileShards decodes a fuzz input into a code, the body it splits, and a
// shard set for Reconstruct. Input bytes: n−1 (mod 24), k−1 (mod n), the
// body length, a body pattern, a bodyLen offset (128 = the real length),
// then two bytes per entry. An entry (a, b) with a even hands over the
// genuine shard a/2 mod n; with a odd it is hostile: index a/2−8 (out of
// range at both ends) and a shard filled with b whose length b&3 picks —
// empty, one short, one long, or the right length.
func hostileShards(data []byte) (c *Code, body []byte, indices []int, shards [][]byte, bodyLen int, ok bool) {
	if len(data) < 5 {
		return nil, nil, nil, nil, 0, false
	}
	n := 1 + int(data[0])%24
	c, err := New(n, 1+int(data[1])%n)
	if err != nil {
		panic(err)
	}
	body = make([]byte, data[2])
	for i := range body {
		body[i] = byte(i)*data[3] + 7
	}
	bodyLen = len(body) + int(data[4]) - 128
	split := c.Split(body)
	shardLen := len(split[0])
	for p := data[5:]; len(p) >= 2; p = p[2:] {
		a, b := int(p[0]), p[1]
		if a%2 == 0 {
			i := a / 2 % n
			indices, shards = append(indices, i), append(shards, split[i])
			continue
		}
		s := bytes.Repeat([]byte{b}, [4]int{0, shardLen - 1, shardLen + 1, shardLen}[b&3])
		indices, shards = append(indices, a/2-8), append(shards, s)
	}
	return c, body, indices, shards, bodyLen, true
}

// FuzzReconstruct feeds Reconstruct hostile shard sets: mismatched lengths,
// duplicate and out-of-range indices, empty shards, and bodyLen outside
// [0, k·shardLen]. It must never panic, and it must fail with one of its two
// errors or return bodyLen bytes. When the k shards its documented scan
// selects (the first distinct in-range non-empty ones of the first usable
// length) are all genuine, it must return the zero-padded body's first
// bodyLen bytes, or ErrBadShards for a bodyLen out of range.
// AppendReconstruct onto a garbage-filled dst (its spare capacity too) must
// keep the prefix and append exactly what Reconstruct returns, and on error
// return dst itself.
func FuzzReconstruct(f *testing.F) {
	for _, seed := range [][]byte{
		{5, 2, 40, 3, 128, 0, 0, 2, 0, 4, 0},              // three data shards: systematic
		{5, 2, 40, 3, 128, 4, 0, 6, 0, 8, 0},              // three parity-heavy shards
		{5, 2, 40, 3, 128, 17, 2, 0, 0, 2, 0, 4, 0},       // a long hostile shard first sets the length
		{5, 2, 40, 3, 128, 0, 0, 0, 0, 0, 0, 2, 0, 4, 0},  // duplicate indices
		{5, 2, 40, 3, 128, 1, 3, 41, 3, 2, 0, 6, 0, 8, 0}, // out-of-range indices at both ends
		{5, 2, 40, 3, 128, 17, 0, 2, 0, 4, 0, 6, 0},       // an empty shard
		{5, 2, 40, 3, 255, 0, 0, 2, 0, 4, 0},              // bodyLen above k·shardLen
		{5, 2, 40, 3, 0, 0, 0, 2, 0, 4, 0},                // negative bodyLen
		{0, 0, 0, 0, 128, 0, 0},                           // (1, 1) code, empty body
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, body, indices, shards, bodyLen, ok := hostileShards(data)
		if !ok {
			return
		}
		got, err := c.Reconstruct(indices, shards, bodyLen)
		if err != nil && !errors.Is(err, ErrBadShards) && !errors.Is(err, ErrTooFewShards) {
			t.Fatalf("unexpected error %v", err)
		}
		if err == nil && len(got) != bodyLen {
			t.Fatalf("returned %d bytes for bodyLen %d", len(got), bodyLen)
		}
		prefix := len(data) % 7
		dst := bytes.Repeat([]byte{0xA5}, prefix+max(bodyLen, 0)+len(data)%3)[:prefix]
		appended, appendErr := c.AppendReconstruct(dst, indices, shards, bodyLen)
		if (appendErr == nil) != (err == nil) {
			t.Fatalf("AppendReconstruct error %v, Reconstruct error %v", appendErr, err)
		}
		if !bytes.Equal(appended[:min(prefix, len(appended))], dst) {
			t.Fatalf("AppendReconstruct changed the prefix: %x", appended)
		}
		if appendErr != nil && (len(appended) != prefix || cap(appended) != cap(dst) ||
			prefix > 0 && &appended[0] != &dst[0]) {
			t.Fatalf("AppendReconstruct error %v did not return dst unchanged", appendErr)
		}
		if appendErr == nil && !bytes.Equal(appended[prefix:], got) {
			t.Fatalf("AppendReconstruct appended %x, Reconstruct returned %x", appended[prefix:], got)
		}
		// The documented selection, with each pick checked against Split.
		split := c.Split(body)
		seen := map[int]bool{}
		picked, genuine, shardLen := 0, true, 0
		for i, idx := range indices {
			if picked == c.K() || idx < 0 || idx >= c.N() || seen[idx] || len(shards[i]) == 0 ||
				shardLen != 0 && len(shards[i]) != shardLen {
				continue
			}
			shardLen = len(shards[i])
			seen[idx] = true
			picked++
			genuine = genuine && bytes.Equal(shards[i], split[idx])
		}
		if len(indices) != len(shards) || picked < c.K() || !genuine {
			return
		}
		if bodyLen < 0 || bodyLen > c.K()*shardLen {
			if !errors.Is(err, ErrBadShards) {
				t.Fatalf("bodyLen %d of %d×%d: error %v, want ErrBadShards", bodyLen, c.K(), shardLen, err)
			}
			return
		}
		want := make([]byte, bodyLen)
		copy(want, body)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("k genuine shards %v: got %x (error %v), want %x", indices, got, err, want)
		}
	})
}

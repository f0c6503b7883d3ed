package coin

import (
	"math"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

func TestLocalCoinDeterministic(t *testing.T) {
	a := NewLocal(7)
	b := NewLocal(7)
	for r := 1; r <= 100; r++ {
		va, oka := a.Value(r)
		vb, okb := b.Value(r)
		if !oka || !okb {
			t.Fatalf("local coin unavailable at round %d", r)
		}
		if va != vb {
			t.Fatalf("same seed diverged at round %d", r)
		}
		if !va.Valid() {
			t.Fatalf("invalid coin value %v", va)
		}
	}
}

func TestLocalCoinIsFair(t *testing.T) {
	// Over many (seed, round) pairs, the bit frequency must be near 1/2.
	ones := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		c := NewLocal(int64(i))
		v, _ := c.Value(i % 50)
		if v == types.One {
			ones++
		}
	}
	ratio := float64(ones) / trials
	if math.Abs(ratio-0.5) > 0.02 {
		t.Errorf("coin bias: P(1) = %.3f", ratio)
	}
}

func TestLocalCoinIndependentAcrossSeeds(t *testing.T) {
	// Different seeds must disagree on some rounds (they are independent
	// flips, not copies).
	a := NewLocal(1)
	b := NewLocal(2)
	same := 0
	for r := 1; r <= 200; r++ {
		va, _ := a.Value(r)
		vb, _ := b.Value(r)
		if va == vb {
			same++
		}
	}
	if same == 0 || same == 200 {
		t.Errorf("seeds 1 and 2 agreed on %d/200 rounds; expected a mix", same)
	}
}

func TestLocalCoinNoMessages(t *testing.T) {
	c := NewLocal(1)
	if msgs := c.Release(3); msgs != nil {
		t.Errorf("local coin emitted messages: %v", msgs)
	}
	c.HandleShare(1, &types.CoinSharePayload{Round: 3}) // must be a no-op
	if v, ok := c.Value(3); !ok || !v.Valid() {
		t.Error("local coin must stay available")
	}
}

func TestIdealCoinMatching(t *testing.T) {
	a := NewIdeal(99)
	b := NewIdeal(99)
	for r := 1; r <= 50; r++ {
		va, _ := a.Value(r)
		vb, _ := b.Value(r)
		if va != vb {
			t.Fatalf("ideal coin mismatch at round %d", r)
		}
	}
	if msgs := a.Release(1); msgs != nil {
		t.Error("ideal coin must not send messages")
	}
	a.HandleShare(2, nil) // must not panic
}

func newCommonSet(t *testing.T, n, f int, seed int64) (*Dealer, []*Common) {
	t.Helper()
	spec := quorum.MustNew(n, f)
	d := NewDealer(spec, seed)
	peers := types.Processes(n)
	cs := make([]*Common, n)
	for i := range cs {
		cs[i] = NewCommon(peers[i], peers, d)
	}
	return d, cs
}

// deliverAll routes every share message among the given endpoints.
func deliverAll(cs []*Common, msgs []types.Message) {
	for _, m := range msgs {
		p, ok := m.Payload.(*types.CoinSharePayload)
		if !ok {
			continue
		}
		idx := int(m.To) - 1
		if idx >= 0 && idx < len(cs) {
			cs[idx].HandleShare(m.From, p)
		}
	}
}

func TestCommonCoinMatchingAndTermination(t *testing.T) {
	_, cs := newCommonSet(t, 7, 2, 11)
	for round := 1; round <= 20; round++ {
		var all []types.Message
		for _, c := range cs {
			all = append(all, c.Release(round)...)
		}
		if len(all) != 7*7 {
			t.Fatalf("round %d: %d share messages, want 49", round, len(all))
		}
		deliverAll(cs, all)
		var first types.Value
		for i, c := range cs {
			v, ok := c.Value(round)
			if !ok {
				t.Fatalf("round %d: process %d has no value", round, i+1)
			}
			if i == 0 {
				first = v
			} else if v != first {
				t.Fatalf("round %d: mismatch %v vs %v", round, v, first)
			}
		}
	}
}

func TestCommonCoinMatchesDealerSecret(t *testing.T) {
	d, cs := newCommonSet(t, 4, 1, 5)
	var all []types.Message
	for _, c := range cs {
		all = append(all, c.Release(9)...)
	}
	deliverAll(cs, all)
	v, ok := cs[0].Value(9)
	if !ok {
		t.Fatal("no value")
	}
	if v != d.SecretFor(9) {
		t.Errorf("reconstructed %v, dealer secret %v", v, d.SecretFor(9))
	}
}

func TestCommonCoinWithWithheldShares(t *testing.T) {
	// f processes withhold (Byzantine silence): the rest must still
	// reconstruct from n−f ≥ f+1 shares.
	_, cs := newCommonSet(t, 7, 2, 3)
	var all []types.Message
	for i, c := range cs {
		if i < 2 { // p1, p2 Byzantine-silent
			continue
		}
		all = append(all, c.Release(1)...)
	}
	deliverAll(cs, all)
	for i := 2; i < 7; i++ {
		if _, ok := cs[i].Value(1); !ok {
			t.Fatalf("p%d failed to reconstruct with %d shares", i+1, 5)
		}
	}
}

func TestCommonCoinInsufficientShares(t *testing.T) {
	// Only f processes release: nobody reconstructs (threshold is f+1).
	_, cs := newCommonSet(t, 7, 2, 3)
	var all []types.Message
	for i := 0; i < 2; i++ {
		all = append(all, cs[i].Release(1)...)
	}
	deliverAll(cs, all)
	for i, c := range cs {
		if _, ok := c.Value(1); ok {
			t.Fatalf("p%d reconstructed from only f shares", i+1)
		}
	}
}

func TestCommonCoinRejectsForgedShares(t *testing.T) {
	d, cs := newCommonSet(t, 4, 1, 8)
	target := cs[3]

	// A fabricated share with a bogus MAC must be ignored.
	target.HandleShare(1, &types.CoinSharePayload{Round: 1, Share: "\x01\x42", MAC: "nope"})
	// A genuine share replayed under a different sender must be ignored.
	share, mac := d.ShareFor(1, 1)
	target.HandleShare(2, &types.CoinSharePayload{Round: 1, Share: share, MAC: mac})
	// A genuine share replayed for a different round must be ignored.
	target.HandleShare(1, &types.CoinSharePayload{Round: 2, Share: share, MAC: mac})

	if _, ok := target.Value(1); ok {
		t.Fatal("reconstructed from forged/replayed shares")
	}

	// Two genuine shares (f+1 = 2) must then succeed.
	target.HandleShare(1, &types.CoinSharePayload{Round: 1, Share: share, MAC: mac})
	s2, m2 := d.ShareFor(2, 1)
	target.HandleShare(2, &types.CoinSharePayload{Round: 1, Share: s2, MAC: m2})
	v, ok := target.Value(1)
	if !ok || v != d.SecretFor(1) {
		t.Fatalf("genuine shares failed: ok=%v v=%v want %v", ok, v, d.SecretFor(1))
	}
}

func TestCommonCoinDuplicateSharesDoNotHelp(t *testing.T) {
	d, cs := newCommonSet(t, 7, 2, 8)
	target := cs[0]
	share, mac := d.ShareFor(1, 1)
	for i := 0; i < 10; i++ {
		target.HandleShare(1, &types.CoinSharePayload{Round: 1, Share: share, MAC: mac})
	}
	if _, ok := target.Value(1); ok {
		t.Fatal("one process's share repeated 10 times reached the threshold")
	}
}

func TestCommonCoinReleaseIdempotent(t *testing.T) {
	_, cs := newCommonSet(t, 4, 1, 8)
	first := cs[0].Release(1)
	if len(first) != 4 {
		t.Fatalf("first release sent %d messages, want 4", len(first))
	}
	if again := cs[0].Release(1); again != nil {
		t.Fatalf("second release sent %d messages, want 0", len(again))
	}
}

func TestCommonCoinIsFairAcrossRounds(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	d := NewDealer(spec, 1234)
	ones := 0
	const rounds = 2000
	for r := 1; r <= rounds; r++ {
		if d.SecretFor(r) == types.One {
			ones++
		}
	}
	ratio := float64(ones) / rounds
	if math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("dealer bias: P(1) = %.3f", ratio)
	}
}

func TestDealerDeterministicAcrossInstances(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	d1 := NewDealer(spec, 77)
	d2 := NewDealer(spec, 77)
	for r := 1; r <= 50; r++ {
		if d1.SecretFor(r) != d2.SecretFor(r) {
			t.Fatalf("dealers with equal seeds diverged at round %d", r)
		}
	}
	// And lazily dealing in a different order must not change outcomes for
	// rounds already dealt... rounds dealt in different orders may differ —
	// determinism is guaranteed for identical access patterns, which is what
	// replays have. Verify same-order access matches share-wise.
	s1, m1 := d1.ShareFor(2, 3)
	s2, m2 := d2.ShareFor(2, 3)
	if s1 != s2 || m1 != m2 {
		t.Error("share predistribution diverged across identical dealers")
	}
}

func TestDealerShareForUnknownProcess(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	d := NewDealer(spec, 1)
	if s, m := d.ShareFor(99, 1); s != "" || m != "" {
		t.Error("out-of-range process must get empty shares")
	}
	if s, m := d.ShareFor(0, 1); s != "" || m != "" {
		t.Error("process 0 must get empty shares")
	}
}

func TestShareCodec(t *testing.T) {
	s, _, ok := decodeShare(nil, "")
	if ok {
		t.Errorf("decoded empty share: %+v", s)
	}
	if _, _, ok := decodeShare(nil, "x"); ok {
		t.Error("decoded 1-byte share")
	}
	got, ys, ok := decodeShare([]byte{7}, "\x03\x09\x08")
	if !ok || got.X != 3 || len(got.Y) != 2 || got.Y[0] != 9 || got.Y[1] != 8 {
		t.Errorf("round trip failed: %+v", got)
	}
	if string(ys) != "\x07\x09\x08" || cap(got.Y) != 2 {
		t.Errorf("decode appended %x to ys, share Y %x with cap %d", ys, got.Y, cap(got.Y))
	}
}

package coin

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/auth"
	"repro/internal/quorum"
	"repro/internal/shamir"
	"repro/internal/types"
)

// Dealer is the trusted setup of the Rabin-style common coin. For every
// round it samples one random bit, Shamir-shares it with threshold f+1 over
// GF(2^8), and MACs each share so a Byzantine process cannot inject
// fabricated shares. Rounds are dealt lazily and memoized, so the coin
// supports unbounded protocol executions; with a fixed seed the dealing is
// reproducible. A round is dealt once, into one record holding every
// process's share payload, which ShareFor and Common.Release read without
// copying: four allocations a round, whatever n is.
//
// The trust model is exactly the paper's (via Rabin, FOCS 1983): the dealer
// is honest and acts only before the execution; during the execution it is
// just a lookup table each process holds a slice of.
//
// # Pruning contract (the cluster low-watermark)
//
// The memoized sharings are read by every process's Common endpoint, so no
// single process may prune them by its own round. Prune takes the minimum
// current round across the cluster, which the runner scans for in its
// delivery loop: rounds only advance, and a process calls ShareFor only for
// its current round. Pruned rounds are never re-dealt — ShareFor answers
// them with empty strings rather than touching the RNG — because a re-deal
// would mint a different sharing whose MACs contradict shares already on
// the wire. Verification needs no per-round state (the MAC keys are
// round-independent), so a straggler's old share still verifies.
type Dealer struct {
	spec quorum.Spec

	// keys' MAC state is reused by every share MAC and VerifyShare: a
	// dealer belongs to one cluster, which one goroutine runs.
	keys *auth.DealerKeys
	rng  *rand.Rand
	// rounds memoizes each dealt round as one immutable record: its n share
	// payloads in peer-index order, whose Share and MAC fields are
	// substrings of one string (every encoded share, then every MAC).
	// Release hands out pointers into a record and messages in flight keep
	// it alive, so a record is never reused; Prune and Reset only drop it.
	rounds map[int][]types.CoinSharePayload
	// mac is the scratch each share's MAC is computed into.
	mac [auth.MACSize]byte
	// floor is the cluster low-watermark: rounds below it are pruned and
	// must never be dealt (or re-dealt).
	floor int
}

// NewDealer creates a dealer for the given system spec, deterministically
// derived from seed. Shamir sharing over GF(2^8) limits the system to
// n ≤ 255 processes.
func NewDealer(spec quorum.Spec, seed int64) *Dealer {
	d := &Dealer{spec: spec, rounds: make(map[int][]types.CoinSharePayload)}
	d.Reset(seed)
	return d
}

// Reset re-deals the coin from seed: the dealer returns to the state
// NewDealer produces for its spec and seed, with the share key derived from
// seed, the RNG re-seeded in place and no sharing or low-watermark left. A
// cluster re-armed for a new run resets its dealer and every Common
// endpoint holding it before any of them releases a round.
func (d *Dealer) Reset(seed int64) {
	d.keys = auth.NewDealerKeys(auth.DeriveKey(seedKey(seed), "dealer"))
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(seed))
	} else {
		d.rng.Seed(seed)
	}
	clear(d.rounds)
	d.floor = 0
}

func seedKey(seed int64) []byte {
	return []byte(fmt.Sprintf("coin-dealer-%d", seed))
}

// deal lazily creates the record of a round. Rounds below the
// low-watermark are never dealt: their original sharing is gone, and a
// re-deal would draw fresh randomness and contradict shares already
// distributed.
func (d *Dealer) deal(round int) []types.CoinSharePayload {
	if round < d.floor {
		return nil
	}
	if rec, ok := d.rounds[round]; ok {
		return rec
	}
	bit := byte(d.rng.Intn(2))
	// One secret byte whose low bit is the coin; threshold f+1 means f
	// colluding processes hold a degree-f polynomial's worth of nothing.
	ss, err := shamir.Split([]byte{bit}, d.spec.N(), d.spec.F()+1, d.rng)
	if err != nil {
		// Split fails only on invalid (n, threshold); the quorum.Spec
		// invariants (n ≥ 1, 0 ≤ f < n) rule that out.
		panic(fmt.Sprintf("coin: dealing round %d: %v", round, err))
	}
	// Each share is encoded as X followed by Y (see decodeShare), and every
	// share of one dealing has the secret's width. Share i is peer i+1's
	// (quorum.Spec.Index); its MAC binds it to that peer and is computed
	// over the encoding already written.
	size := 1 + len(ss[0].Y)
	var b strings.Builder
	b.Grow(len(ss) * (size + auth.MACSize))
	for _, sh := range ss {
		b.WriteByte(sh.X)
		b.Write(sh.Y)
	}
	for i := range ss {
		share := b.String()[i*size : (i+1)*size]
		b.Write(d.keys.AppendSignShare(d.mac[:0], types.ProcessID(i+1), round, share))
	}
	raw := b.String()
	macs := raw[len(ss)*size:]
	rec := make([]types.CoinSharePayload, len(ss))
	for i := range rec {
		rec[i] = types.CoinSharePayload{
			Round: round,
			Share: raw[i*size : (i+1)*size],
			MAC:   macs[i*auth.MACSize : (i+1)*auth.MACSize],
		}
	}
	d.rounds[round] = rec
	return rec
}

// payload returns process p's share payload for a round, a pointer into
// the round's record (dealt first if need be); nil for a non-peer or a
// pruned round.
func (d *Dealer) payload(p types.ProcessID, round int) *types.CoinSharePayload {
	rec := d.deal(round)
	idx, ok := d.spec.Index(p)
	if !ok || rec == nil {
		return nil
	}
	return &rec[idx]
}

// ShareFor returns process p's authenticated share for a round — the
// predistribution lookup. It returns wire-ready opaque strings.
func (d *Dealer) ShareFor(p types.ProcessID, round int) (share, mac string) {
	if pl := d.payload(p, round); pl != nil {
		return pl.Share, pl.MAC
	}
	return "", "" // not a peer, or a pruned round
}

// VerifyShare checks that a received share is the one dealt to p for round.
func (d *Dealer) VerifyShare(p types.ProcessID, round int, share, mac string) bool {
	return d.keys.VerifyShare(p, round, share, mac)
}

// Prune releases the memoized sharings of every round below the
// cluster low-watermark (see the pruning contract above). The caller
// asserts that no process will release or query those rounds again; the
// runner derives that from the minimum current round across the cluster.
// Pruned rounds are never re-dealt — ShareFor answers them with empty
// strings — so the dealing stream for live rounds is unaffected and replays
// stay byte-identical.
func (d *Dealer) Prune(below int) {
	if below <= d.floor {
		return
	}
	d.floor = below
	maps.DeleteFunc(d.rounds, func(r int, _ []types.CoinSharePayload) bool { return r < below })
}

// RoundsRetained returns how many per-round sharings the dealer currently
// memoizes — bounded by the spread between the fastest process's round and
// the low-watermark under runner-driven pruning; linear in rounds without.
func (d *Dealer) RoundsRetained() int {
	return len(d.rounds)
}

// decodeShare parses a share encoded as X followed by Y, appending Y to
// ys; the share's Y is the window of ys it filled.
func decodeShare(ys []byte, raw string) (shamir.Share, []byte, bool) {
	if len(raw) < 2 {
		return shamir.Share{}, ys, false
	}
	from := len(ys)
	ys = append(ys, raw[1:]...)
	return shamir.Share{X: raw[0], Y: ys[from:len(ys):len(ys)]}, ys, true
}

// Common is one process's endpoint of the dealer coin.
//
// Its round records, share slots included, are recycled: Prune and Reset
// put the records they release on a free list the next rounds take from.
// Release's broadcast and each reconstruction reuse scratch the endpoint
// owns. A fresh endpoint allocates all of it lazily, on first use; once
// warm, neither Release nor HandleShare allocates.
type Common struct {
	me     types.ProcessID
	peers  []types.ProcessID
	dealer *Dealer
	rounds map[int]*commonRound // nil until the first round is named
	free   []*commonRound       // released records, cleared, for reuse
	// floor is the pruning watermark: per-round state below it has been
	// released and late shares for those rounds are dropped on arrival.
	floor int

	// out is Release's broadcast, valid until the next Release; picked,
	// ys and secret hold a reconstruction's f+1 decoded shares, their Y
	// bytes and the secret.
	out    []types.Message
	picked []shamir.Share
	ys     []byte
	secret []byte
}

// commonRound is one round's state at one endpoint. shares holds the
// verified shares at their senders' peer indexes (quorum.Spec.Index), as
// the strings they arrived in, so slot order is X order; its slots are
// cleared once the value is reconstructed, and the slice stays with the
// record when it is recycled.
type commonRound struct {
	released, decided bool
	value             types.Value
	shares            []string
	filled            int
}

// NewCommon returns the coin endpoint for process me. All processes of a run
// share the same dealer (their slice of the predistributed table) and the
// same peer list, which the endpoint holds and the caller must not change.
func NewCommon(me types.ProcessID, peers []types.ProcessID, dealer *Dealer) *Common {
	return &Common{me: me, peers: peers, dealer: dealer}
}

// Reset re-arms the endpoint for a new run on its dealer, which the caller
// has Reset: every round's state and the pruning floor go, as NewCommon
// leaves them, and the round records go to the free list.
func (c *Common) Reset() {
	// order-free: every released record is cleared, so which is reused first does not matter
	for _, cr := range c.rounds {
		c.recycle(cr)
	}
	clear(c.rounds)
	c.floor = 0
}

var _ Coin = (*Common)(nil)

// round returns round r's state, creating it from the free list or, when
// that is empty, with its n share slots; nil below the floor.
func (c *Common) round(r int) *commonRound {
	if r < c.floor {
		return nil
	}
	if cr := c.rounds[r]; cr != nil {
		return cr
	}
	if c.rounds == nil {
		c.rounds = make(map[int]*commonRound)
	}
	var cr *commonRound
	if k := len(c.free); k > 0 {
		cr, c.free = c.free[k-1], c.free[:k-1]
	} else {
		cr = &commonRound{shares: make([]string, c.dealer.spec.N())}
	}
	c.rounds[r] = cr
	return cr
}

// recycle clears a released round's record onto the free list.
func (c *Common) recycle(cr *commonRound) {
	clear(cr.shares)
	*cr = commonRound{shares: cr.shares}
	c.free = append(c.free, cr)
}

// Release implements Coin: broadcast this process's share for the round
// (including to itself, so its own share is counted on delivery). The
// payload is the dealer's, shared by every copy; the returned slice is the
// endpoint's own and valid until its next Release.
func (c *Common) Release(round int) []types.Message {
	cr := c.round(round)
	if cr == nil || cr.released {
		return nil
	}
	cr.released = true
	p := c.dealer.payload(c.me, round)
	if p == nil {
		return nil
	}
	c.out = types.AppendBroadcast(slices.Grow(c.out[:0], len(c.peers)), c.me, c.peers, p)
	return c.out
}

// HandleShare implements Coin: verify, store, and reconstruct at f+1 valid
// shares. Shares for pruned rounds are dropped before any allocation or MAC
// work: a straggler's ancient share must not regrow released state.
func (c *Common) HandleShare(from types.ProcessID, p *types.CoinSharePayload) {
	if p == nil || p.Round < c.floor {
		return
	}
	if cr := c.rounds[p.Round]; cr != nil && cr.decided {
		return
	}
	i, ok := c.dealer.spec.Index(from)
	if !ok || !c.dealer.VerifyShare(from, p.Round, p.Share, p.MAC) {
		return // a non-peer (dealt no share), or a forged or corrupted share
	}
	if len(p.Share) < 2 || p.Share[0] != byte(from) {
		return // a genuine MAC binds X to the sender, but stay defensive
	}
	cr := c.round(p.Round)
	if cr.shares[i] == "" {
		cr.filled++
	}
	// The share is kept as it arrived and decoded only for reconstruction,
	// so storing one allocates nothing.
	cr.shares[i] = p.Share
	threshold := c.dealer.spec.F() + 1
	if cr.filled < threshold {
		return
	}
	// The first f+1 filled slots, in X order: any f+1 valid shares agree,
	// but a fixed choice keeps replays byte-identical. Every genuine share
	// of one dealing has p.Share's width.
	c.picked = slices.Grow(c.picked[:0], threshold)
	c.ys = slices.Grow(c.ys[:0], threshold*(len(p.Share)-1))
	for _, raw := range cr.shares {
		if len(c.picked) == threshold {
			break
		}
		if raw != "" {
			var s shamir.Share
			s, c.ys, _ = decodeShare(c.ys, raw) // stored shares passed the length check
			c.picked = append(c.picked, s)
		}
	}
	secret, err := shamir.AppendReconstruct(c.secret[:0], c.picked, threshold)
	if err != nil {
		return
	}
	c.secret = secret
	cr.decided, cr.value = true, types.Value(secret[0]&1)
	clear(cr.shares) // no longer needed
}

// Value implements Coin.
func (c *Common) Value(round int) (types.Value, bool) {
	if cr := c.rounds[round]; cr != nil && cr.decided {
		return cr.value, true
	}
	return types.Zero, false
}

var _ Pruner = (*Common)(nil)

// Prune implements Pruner: release the state of every round below the floor
// — release flag, unreconstructed shares (the share strings are the
// dominant per-round retention) and value — onto the free list. The map
// stays bounded by the retained rounds, so arbitrarily long executions keep
// a constant coin footprint. Message behaviour is untouched: pruned rounds
// were already released, and their values are never queried again.
func (c *Common) Prune(below int) {
	if below <= c.floor {
		return
	}
	c.floor = below
	// order-free: every released record is cleared, so which is reused first does not matter
	for r, cr := range c.rounds {
		if r < below {
			c.recycle(cr)
			delete(c.rounds, r)
		}
	}
}

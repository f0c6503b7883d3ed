package coin

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"

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
// reproducible.
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

	// mu guards the dealing state and keys, whose MAC state is reused by
	// every SignShare and VerifyShare.
	mu     sync.Mutex
	keys   *auth.DealerKeys
	rng    *rand.Rand
	rounds map[int][]shamir.Share
	// floor is the cluster low-watermark: rounds below it are pruned and
	// must never be dealt (or re-dealt).
	floor int
}

// NewDealer creates a dealer for the given system spec, deterministically
// derived from seed. Shamir sharing over GF(2^8) limits the system to
// n ≤ 255 processes.
func NewDealer(spec quorum.Spec, seed int64) *Dealer {
	d := &Dealer{spec: spec, rounds: make(map[int][]shamir.Share)}
	d.Reset(seed)
	return d
}

// Reset re-deals the coin from seed: the dealer returns to the state
// NewDealer produces for its spec and seed, with the share key derived from
// seed, the RNG re-seeded in place and no sharing or low-watermark left. A
// cluster re-armed for a new run resets its dealer and every Common
// endpoint holding it before any of them releases a round.
func (d *Dealer) Reset(seed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
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

// deal lazily creates the sharing for a round; the caller holds mu. Rounds
// below the low-watermark are never dealt: their original sharing is gone,
// and a re-deal would draw fresh randomness and contradict shares already
// distributed.
func (d *Dealer) deal(round int) []shamir.Share {
	if round < d.floor {
		return nil
	}
	if ss, ok := d.rounds[round]; ok {
		return ss
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
	d.rounds[round] = ss
	return ss
}

// ShareFor returns process p's authenticated share for a round — the
// predistribution lookup. It returns wire-ready opaque strings.
func (d *Dealer) ShareFor(p types.ProcessID, round int) (share, mac string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ss := d.deal(round)
	idx, ok := d.spec.Index(p)
	if !ok || ss == nil {
		return "", "" // not a peer, or a pruned round
	}
	raw := encodeShare(ss[idx])
	return raw, d.keys.SignShare(p, round, raw)
}

// VerifyShare checks that a received share is the one dealt to p for round.
func (d *Dealer) VerifyShare(p types.ProcessID, round int, share, mac string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
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
	d.mu.Lock()
	defer d.mu.Unlock()
	if below <= d.floor {
		return
	}
	d.floor = below
	maps.DeleteFunc(d.rounds, func(r int, _ []shamir.Share) bool { return r < below })
}

// RoundsRetained returns how many per-round sharings the dealer currently
// memoizes — bounded by the spread between the fastest process's round and
// the low-watermark under runner-driven pruning; linear in rounds without.
func (d *Dealer) RoundsRetained() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.rounds)
}

// encodeShare flattens a share to an opaque string: X followed by Y.
func encodeShare(s shamir.Share) string {
	buf := make([]byte, 0, 1+len(s.Y))
	buf = append(buf, s.X)
	buf = append(buf, s.Y...)
	return string(buf)
}

// decodeShare parses encodeShare output.
func decodeShare(raw string) (shamir.Share, bool) {
	if len(raw) < 2 {
		return shamir.Share{}, false
	}
	return shamir.Share{X: raw[0], Y: []byte(raw[1:])}, true
}

// Common is one process's endpoint of the dealer coin.
type Common struct {
	me     types.ProcessID
	peers  []types.ProcessID
	dealer *Dealer
	rounds map[int]*commonRound
	// floor is the pruning watermark: per-round state below it has been
	// released and late shares for those rounds are dropped on arrival.
	floor int
}

// commonRound is one round's state at one endpoint. shares holds the
// verified shares at their senders' peer indexes (quorum.Spec.Index), as
// the strings they arrived in, so slot order is X order; it goes once the
// value is reconstructed.
type commonRound struct {
	released, decided bool
	value             types.Value
	shares            []string
	filled            int
}

// NewCommon returns the coin endpoint for process me. All processes of a run
// share the same dealer (their slice of the predistributed table) and the
// same peer list.
func NewCommon(me types.ProcessID, peers []types.ProcessID, dealer *Dealer) *Common {
	return &Common{
		me:     me,
		peers:  append([]types.ProcessID(nil), peers...),
		dealer: dealer,
		rounds: make(map[int]*commonRound),
	}
}

// Reset re-arms the endpoint for a new run on its dealer, which the caller
// has Reset: every round's state and the pruning floor go, as NewCommon
// leaves them.
func (c *Common) Reset() {
	clear(c.rounds)
	c.floor = 0
}

var _ Coin = (*Common)(nil)

// round returns round r's state, creating it; nil below the floor.
func (c *Common) round(r int) *commonRound {
	if r < c.floor {
		return nil
	}
	cr := c.rounds[r]
	if cr == nil {
		cr = &commonRound{}
		c.rounds[r] = cr
	}
	return cr
}

// Release implements Coin: broadcast this process's share for the round
// (including to itself, so its own share is counted on delivery).
func (c *Common) Release(round int) []types.Message {
	cr := c.round(round)
	if cr == nil || cr.released {
		return nil
	}
	cr.released = true
	share, mac := c.dealer.ShareFor(c.me, round)
	if share == "" {
		return nil
	}
	p := &types.CoinSharePayload{Round: round, Share: share, MAC: mac}
	return types.Broadcast(c.me, c.peers, p)
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
	if cr.shares == nil {
		cr.shares = make([]string, c.dealer.spec.N())
	}
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
	// but a fixed choice keeps replays byte-identical.
	ss := make([]shamir.Share, 0, threshold)
	for _, raw := range cr.shares {
		if raw != "" && len(ss) < threshold {
			s, _ := decodeShare(raw) // stored shares passed the length check
			ss = append(ss, s)
		}
	}
	secret, err := shamir.Reconstruct(ss, threshold)
	if err != nil {
		return
	}
	cr.decided, cr.value = true, types.Value(secret[0]&1)
	cr.shares = nil // no longer needed
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
// dominant per-round retention) and value. The map stays bounded by the
// retained rounds, so arbitrarily long executions keep a constant coin
// footprint. Message behaviour is untouched: pruned rounds were already
// released, and their values are never queried again.
func (c *Common) Prune(below int) {
	if below <= c.floor {
		return
	}
	c.floor = below
	maps.DeleteFunc(c.rounds, func(r int, _ *commonRound) bool { return r < below })
}

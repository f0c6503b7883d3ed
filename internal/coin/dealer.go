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
	return &Dealer{
		spec:   spec,
		keys:   auth.NewDealerKeys(auth.DeriveKey(seedKey(seed), "dealer")),
		rng:    rand.New(rand.NewSource(seed)),
		rounds: make(map[int][]shamir.Share),
	}
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
	idx := int(p) - 1
	if idx < 0 || idx >= len(ss) {
		return "", ""
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

// Spec returns the system spec the dealer was set up for.
func (d *Dealer) Spec() quorum.Spec { return d.spec }

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
	spec   quorum.Spec
	dealer *Dealer

	released map[int]bool
	shares   map[int]map[types.ProcessID]string
	values   map[int]types.Value
	// floor is the pruning watermark: per-round state below it has been
	// released and late shares for those rounds are dropped on arrival.
	floor int
}

// NewCommon returns the coin endpoint for process me. All processes of a run
// share the same dealer (their slice of the predistributed table) and the
// same peer list.
func NewCommon(me types.ProcessID, peers []types.ProcessID, dealer *Dealer) *Common {
	ps := append([]types.ProcessID(nil), peers...)
	return &Common{
		me:       me,
		peers:    ps,
		spec:     dealer.Spec(),
		dealer:   dealer,
		released: make(map[int]bool),
		shares:   make(map[int]map[types.ProcessID]string),
		values:   make(map[int]types.Value),
	}
}

var _ Coin = (*Common)(nil)

// Release implements Coin: broadcast this process's share for the round
// (including to itself, so its own share is counted on delivery).
func (c *Common) Release(round int) []types.Message {
	if round < c.floor || c.released[round] {
		return nil
	}
	c.released[round] = true
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
	if _, done := c.values[p.Round]; done {
		return
	}
	if !c.dealer.VerifyShare(from, p.Round, p.Share, p.MAC) {
		return // forged or corrupted share
	}
	if len(p.Share) < 2 || p.Share[0] != byte(from) {
		return // a genuine MAC binds X to the sender, but stay defensive
	}
	byRound := c.shares[p.Round]
	if byRound == nil {
		byRound = make(map[types.ProcessID]string)
		c.shares[p.Round] = byRound
	}
	// The share is kept as it arrived and decoded only for reconstruction,
	// so storing one allocates nothing.
	byRound[from] = p.Share
	threshold := c.spec.F() + 1
	if len(byRound) < threshold {
		return
	}
	ss := make([]shamir.Share, 0, len(byRound))
	// order-free: collects the shares, sorted below before reconstruction
	for _, raw := range byRound {
		s, _ := decodeShare(raw) // stored shares passed the length check
		ss = append(ss, s)
	}
	// Deterministic reconstruction order (any f+1 valid shares agree, but
	// determinism keeps replays byte-identical).
	sortShares(ss)
	secret, err := shamir.Reconstruct(ss[:threshold], threshold)
	if err != nil {
		return
	}
	c.values[p.Round] = types.Value(secret[0] & 1)
	delete(c.shares, p.Round) // no longer needed
}

// Value implements Coin.
func (c *Common) Value(round int) (types.Value, bool) {
	v, ok := c.values[round]
	return v, ok
}

var _ Pruner = (*Common)(nil)

// Prune implements Pruner: release the release-flags, unreconstructed share
// sets (the share+MAC strings are the dominant per-round retention), and
// memoized values of every round below the floor. The maps stay bounded by
// the retained rounds, so arbitrarily long executions keep a constant coin
// footprint. Message behaviour is untouched: pruned rounds were already
// released, and their values are never queried again.
func (c *Common) Prune(below int) {
	if below <= c.floor {
		return
	}
	c.floor = below
	maps.DeleteFunc(c.released, func(r int, _ bool) bool { return r < below })
	maps.DeleteFunc(c.shares, func(r int, _ map[types.ProcessID]string) bool { return r < below })
	maps.DeleteFunc(c.values, func(r int, _ types.Value) bool { return r < below })
}

// sortShares orders shares by X (insertion sort; at most f+1 ≤ 255 items).
func sortShares(ss []shamir.Share) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].X < ss[j-1].X; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

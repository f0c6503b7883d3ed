package coin

// The production Common against mapCommon, the map-based endpoint it
// replaced: a script of Release, HandleShare and Prune calls (and dealer
// prunes, and re-arms of the dealer and endpoint) drives both over one
// dealer, and after every call the two must agree on Value for every round
// the script has named and on what Release returned. Scripts mix Release
// before, between and after a round's shares; genuine, forged, relayed,
// truncated and duplicate shares; non-peer senders; rounds below the floor
// and far ahead; floor jumps; and re-arms over recycled round records.

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/quorum"
	"repro/internal/shamir"
	"repro/internal/types"
)

// mapCommon is the common-coin endpoint as it was before its per-round
// state moved into peer-indexed records: three round-keyed maps, one of
// them a map of per-sender shares sorted by X before reconstruction.
type mapCommon struct {
	me     types.ProcessID
	peers  []types.ProcessID
	spec   quorum.Spec
	dealer *Dealer

	released map[int]bool
	shares   map[int]map[types.ProcessID]string
	values   map[int]types.Value
	floor    int
}

func newMapCommon(me types.ProcessID, peers []types.ProcessID, dealer *Dealer) *mapCommon {
	return &mapCommon{
		me:       me,
		peers:    append([]types.ProcessID(nil), peers...),
		spec:     dealer.spec,
		dealer:   dealer,
		released: make(map[int]bool),
		shares:   make(map[int]map[types.ProcessID]string),
		values:   make(map[int]types.Value),
	}
}

func (c *mapCommon) Release(round int) []types.Message {
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

func (c *mapCommon) HandleShare(from types.ProcessID, p *types.CoinSharePayload) {
	if p == nil || p.Round < c.floor {
		return
	}
	if _, done := c.values[p.Round]; done {
		return
	}
	if !c.dealer.VerifyShare(from, p.Round, p.Share, p.MAC) {
		return
	}
	if len(p.Share) < 2 || p.Share[0] != byte(from) {
		return
	}
	byRound := c.shares[p.Round]
	if byRound == nil {
		byRound = make(map[types.ProcessID]string)
		c.shares[p.Round] = byRound
	}
	byRound[from] = p.Share
	threshold := c.spec.F() + 1
	if len(byRound) < threshold {
		return
	}
	ss := make([]shamir.Share, 0, len(byRound))
	for _, raw := range byRound {
		s, _, _ := decodeShare(nil, raw)
		ss = append(ss, s)
	}
	slices.SortFunc(ss, func(a, b shamir.Share) int { return int(a.X) - int(b.X) })
	secret, err := shamir.Reconstruct(ss[:threshold], threshold)
	if err != nil {
		return
	}
	c.values[p.Round] = types.Value(secret[0] & 1)
	delete(c.shares, p.Round)
}

func (c *mapCommon) Value(round int) (types.Value, bool) {
	v, ok := c.values[round]
	return v, ok
}

func (c *mapCommon) Prune(below int) {
	if below <= c.floor {
		return
	}
	c.floor = below
	maps.DeleteFunc(c.released, func(r int, _ bool) bool { return r < below })
	maps.DeleteFunc(c.shares, func(r int, _ map[types.ProcessID]string) bool { return r < below })
	maps.DeleteFunc(c.values, func(r int, _ types.Value) bool { return r < below })
}

// coinSpecs are the system sizes a script picks from: thresholds 2, 3 and 6.
var coinSpecs = []struct{ n, f int }{{4, 1}, {7, 2}, {16, 5}}

// coinOutsiders follow the peers 1..N in a script's sender palette.
func coinOutsiders(n int) []types.ProcessID {
	return []types.ProcessID{0, types.ProcessID(n + 1), 1 << 31, -1}
}

// Script operations, one byte each, followed by their operand bytes.
const (
	opRelease     = iota // round
	opShare              // sender, round, kind
	opFlood              // round, count, order
	opPrune              // target
	opDealerPrune        // target
	opReset              // seed: the dealer and both endpoints re-armed
	opKinds
)

// Share kinds an opShare byte names (modulo shareKinds); kinds past shareNil
// are genuine too, so half of random scripts' shares are.
const (
	shareGenuine  = iota // the sender's own dealt share
	shareForged          // its MAC with one bit flipped
	shareRelayed         // the next peer's genuine share, sent as the sender's
	shareTampered        // its Y changed under the genuine MAC
	shareShort           // its X alone, under the genuine MAC
	shareOtherRnd        // the sender's genuine share of the next round
	shareNil             // no payload
	shareKinds    = 14
)

const maxCoinOps = 3000

// coinFarRounds are what round bytes 240..255 name.
var coinFarRounds = []int{1 << 30, 1<<30 + 1, 1 << 20, 0, -1, -1 << 20, 2, 3}

// coinRound decodes a round byte against the current floor: most bytes name
// a round from three below max(floor, 1) to eight above it, then small
// absolute rounds, then coinFarRounds.
func coinRound(floor, x int) int {
	switch {
	case x < 224:
		return max(floor, 1) - 3 + x%12
	case x < 240:
		return 1 + x%16
	default:
		return coinFarRounds[x%len(coinFarRounds)]
	}
}

// coinPrune decodes a Prune target: a small step from the floor (one below
// it to four above), a jump up to twenty past it, or a far floor.
func coinPrune(floor, x int) int {
	switch {
	case x < 160:
		return floor - 1 + x%6
	case x < 240:
		return floor + 5 + x%16
	case x < 248:
		return 1<<30 - 2 + x%4
	default:
		return 0
	}
}

type coinReader struct{ data []byte }

func (r *coinReader) done() bool { return len(r.data) == 0 }

func (r *coinReader) next(mod int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % mod
}

// commonRun holds the two endpoints a script drives and the rounds it has
// named, whose values are compared after every operation.
type commonRun struct {
	t      *testing.T
	name   string
	dealer *Dealer
	got    *Common
	want   *mapCommon
	rounds []int
	op     int
}

func (s *commonRun) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s: op %d: %s", s.name, s.op, fmt.Sprintf(format, args...))
}

func (s *commonRun) named(round int) {
	if !slices.Contains(s.rounds, round) {
		s.rounds = append(s.rounds, round)
	}
}

func (s *commonRun) compare() {
	s.t.Helper()
	for _, r := range s.rounds {
		gv, gok := s.got.Value(r)
		wv, wok := s.want.Value(r)
		if gv != wv || gok != wok {
			s.fail("Value(%d) = %v, %v; map endpoint %v, %v", r, gv, gok, wv, wok)
		}
	}
}

func (s *commonRun) release(round int) {
	s.t.Helper()
	s.named(round)
	got, want := s.got.Release(round), s.want.Release(round)
	if !reflect.DeepEqual(got, want) {
		s.fail("Release(%d) = %v, map endpoint %v", round, got, want)
	}
	s.compare()
}

func (s *commonRun) share(from types.ProcessID, p *types.CoinSharePayload) {
	s.t.Helper()
	if p != nil {
		s.named(p.Round)
	}
	s.got.HandleShare(from, p)
	s.want.HandleShare(from, p)
	s.compare()
}

// payload builds the share of the given kind that sender sends for round.
func (s *commonRun) payload(sender types.ProcessID, round, kind int) *types.CoinSharePayload {
	owner, dealt := sender, round
	switch kind {
	case shareNil:
		return nil
	case shareRelayed:
		owner = types.ProcessID(int(sender)%s.dealer.spec.N() + 1)
	case shareOtherRnd:
		dealt = round + 1
	}
	share, mac := s.dealer.ShareFor(owner, dealt)
	switch {
	case kind == shareForged && mac != "":
		mac = mac[:len(mac)-1] + string(mac[len(mac)-1]^1)
	case kind == shareTampered && len(share) > 1:
		share = share[:1] + string(share[1]^0x80) + share[2:]
	case kind == shareShort && share != "":
		share = share[:1]
	}
	return &types.CoinSharePayload{Round: round, Share: share, MAC: mac}
}

// runCommonScript decodes data — a spec byte, a byte choosing me, then
// operations — and runs it against both endpoints.
func runCommonScript(t *testing.T, name string, data []byte) {
	t.Helper()
	r := &coinReader{data: data}
	sys := coinSpecs[r.next(len(coinSpecs))]
	me := types.ProcessID(1 + r.next(sys.n))
	peers := types.Processes(sys.n)
	d := NewDealer(quorum.MustNew(sys.n, sys.f), 17)
	s := &commonRun{t: t, name: name, dealer: d, got: NewCommon(me, peers, d), want: newMapCommon(me, peers, d)}
	senders := append(slices.Clone(peers), coinOutsiders(sys.n)...)
	for ; !r.done() && s.op < maxCoinOps; s.op++ {
		switch r.next(opKinds) {
		case opRelease:
			s.release(coinRound(s.want.floor, r.next(256)))
		case opShare:
			from := senders[r.next(len(senders))]
			round := coinRound(s.want.floor, r.next(256))
			s.share(from, s.payload(from, round, r.next(256)%shareKinds))
		case opFlood:
			round := coinRound(s.want.floor, r.next(256))
			count, order := r.next(sys.n+1), r.next(256)
			step := 1
			if order&1 == 1 {
				step = sys.n - 1 // descending peer order
			}
			for i := range count {
				p := types.ProcessID((order>>1+i*step)%sys.n + 1)
				s.share(p, s.payload(p, round, shareGenuine))
			}
		case opPrune:
			floor := coinPrune(s.want.floor, r.next(256))
			s.got.Prune(floor)
			s.want.Prune(floor)
			s.compare()
		case opDealerPrune:
			d.Prune(coinPrune(d.floor, r.next(256)))
			s.compare()
		case opReset:
			// A re-armed endpoint must match a new map endpoint on the
			// re-dealt coin, whatever rounds its recycled records held.
			d.Reset(int64(r.next(256)))
			s.got.Reset()
			s.want = newMapCommon(me, peers, d)
			s.compare()
		}
	}
}

// coinScript builds a named script, tracking the endpoint floor the way
// runCommonScript does so rounds can be named absolutely.
type coinScript struct {
	data  []byte
	floor int
}

// newCoinScript starts a script on coinSpecs[spec] with process me.
func newCoinScript(spec, me int) *coinScript {
	return &coinScript{data: []byte{byte(spec), byte(me - 1)}}
}

// roundByte encodes round r, which must lie from three below max(floor, 1)
// to eight above it.
func (w *coinScript) roundByte(r int) byte {
	x := r - max(w.floor, 1) + 3
	if x < 0 || x >= 12 {
		panic(fmt.Sprintf("round %d out of reach of floor %d", r, w.floor))
	}
	return byte(x)
}

func (w *coinScript) release(r int) *coinScript {
	return w.releaseRaw(w.roundByte(r))
}

// releaseRaw appends a Release with a raw round byte.
func (w *coinScript) releaseRaw(round byte) *coinScript {
	w.data = append(w.data, opRelease, round)
	return w
}

// share appends a share of the given kind from sender palette index si.
func (w *coinScript) share(si, r, kind int) *coinScript {
	return w.shareRaw(si, w.roundByte(r), kind)
}

// shareRaw appends a share with a raw round byte.
func (w *coinScript) shareRaw(si int, round byte, kind int) *coinScript {
	w.data = append(w.data, opShare, byte(si), round, byte(kind))
	return w
}

// flood appends genuine shares for round r from count peers, starting at
// peer index start, descending if desc.
func (w *coinScript) flood(r, count, start int, desc bool) *coinScript {
	order := byte(start << 1)
	if desc {
		order |= 1
	}
	w.data = append(w.data, opFlood, w.roundByte(r), byte(count), order)
	return w
}

// prune appends a Prune whose target byte is x.
func (w *coinScript) prune(x byte) *coinScript {
	w.data = append(w.data, opPrune, x)
	if f := coinPrune(w.floor, int(x)); f > w.floor {
		w.floor = f
	}
	return w
}

// pruneTo appends Prune(r) for r from one below the floor to four above it.
func (w *coinScript) pruneTo(r int) *coinScript {
	x := r - w.floor + 1
	if x < 0 || x >= 6 {
		panic(fmt.Sprintf("floor %d out of reach of floor %d", r, w.floor))
	}
	return w.prune(byte(x))
}

func (w *coinScript) dealerPrune(x byte) *coinScript {
	w.data = append(w.data, opDealerPrune, x)
	return w
}

// reset appends a re-arm of the dealer (from seed) and both endpoints.
func (w *coinScript) reset(seed byte) *coinScript {
	w.data = append(w.data, opReset, seed)
	w.floor = 0
	return w
}

// commonCases are the named scripts, checked in as FuzzCommonMatchesOracle's
// seed corpus.
func commonCases() map[string][]byte {
	cases := map[string][]byte{}
	const n4, n7, n16 = 0, 1, 2                     // coinSpecs indices
	outsider := func(n, i int) int { return n + i } // palette index of coinOutsiders(n)[i]
	peer := func(p int) int { return p - 1 }        // palette index of peer p

	// Clean rounds under the core's floor discipline: release, every share,
	// prune below r−1; then stragglers for pruned rounds.
	w := newCoinScript(n4, 1)
	for r := 1; r <= 6; r++ {
		w.release(r).flood(r, 4, 0, false).pruneTo(r - 1)
	}
	w.share(peer(2), 4, shareGenuine).release(4).share(peer(3), 5, shareGenuine)
	cases["clean-rounds"] = w.data

	// Release before, between and after a round's shares.
	w = newCoinScript(n7, 3)
	w.release(1).share(peer(2), 1, shareGenuine).share(peer(5), 1, shareGenuine).share(peer(7), 1, shareGenuine).
		share(peer(1), 2, shareGenuine).release(2).share(peer(4), 2, shareGenuine).share(peer(6), 2, shareGenuine).
		flood(3, 7, 2, false).release(3).release(3).release(1)
	cases["release-order"] = w.data

	// Forged, relayed, tampered, truncated, wrong-round and nil shares from
	// every peer, then genuine ones.
	w = newCoinScript(n4, 2)
	for p := 1; p <= 4; p++ {
		for _, k := range []int{shareForged, shareRelayed, shareTampered, shareShort, shareOtherRnd, shareNil} {
			w.share(peer(p), 1, k)
		}
	}
	w.share(peer(4), 1, shareGenuine).share(peer(1), 1, shareGenuine)
	cases["hostile-shares"] = w.data

	// Duplicate genuine shares stay one vote each: below the threshold of
	// three at n=7 however often they repeat.
	w = newCoinScript(n7, 7)
	for range 4 {
		w.share(peer(6), 2, shareGenuine).share(peer(2), 2, shareGenuine)
	}
	w.release(2).share(peer(3), 2, shareGenuine).share(peer(6), 2, shareGenuine)
	cases["duplicates"] = w.data

	// Non-peer senders: their own (empty) shares, peers' shares relayed as
	// theirs, forged ones; none count.
	w = newCoinScript(n4, 4)
	for i := range coinOutsiders(4) {
		for _, k := range []int{shareGenuine, shareRelayed, shareForged} {
			w.share(outsider(4, i), 1, k)
		}
	}
	w.share(peer(3), 1, shareGenuine).share(outsider(4, 1), 1, shareRelayed).share(peer(1), 1, shareGenuine)
	cases["non-peer-senders"] = w.data

	// Rounds below the floor and far ahead: shares and releases at rounds
	// near 1<<30, 1<<20, 0 and negative, then the floor jumps up there.
	w = newCoinScript(n4, 1)
	for x := byte(240); x < 248; x++ {
		w.shareRaw(peer(2), x, shareGenuine).shareRaw(peer(3), x, shareGenuine).releaseRaw(x)
	}
	w.pruneTo(3).share(peer(1), 1, shareGenuine).release(2).flood(3, 4, 1, true).prune(241)
	for x := byte(240); x < 248; x++ {
		w.shareRaw(peer(4), x, shareGenuine)
	}
	cases["far-rounds"] = w.data

	// Floor jumps past rounds holding partial share sets, and dealer
	// prunes that leave Release nothing to send.
	w = newCoinScript(n7, 2)
	w.share(peer(1), 2, shareGenuine).share(peer(2), 3, shareGenuine).release(4).prune(170).
		release(w.floor).flood(w.floor, 7, 0, false).dealerPrune(239).release(w.floor+1).
		share(peer(5), w.floor+2, shareGenuine).prune(250).releaseRaw(226) // round 3, below the floor
	cases["prune-jumps"] = w.data

	// Descending and rotated arrival at n=16: reconstruction takes the
	// first six slots in peer order, whatever order they filled in.
	w = newCoinScript(n16, 9)
	for r := 1; r <= 4; r++ {
		w.release(r).flood(r, 16, 5*r, r%2 == 1)
	}
	w.flood(5, 5, 0, true).share(peer(1), 5, shareForged).share(peer(2), 5, shareGenuine)
	cases["peer-order"] = w.data

	// Re-arms over every state a round record can be recycled from: rounds
	// reconstructed and pruned, then rounds holding one share each (peer
	// 2's) and one only released, re-armed onto a new seed. The same round
	// numbers follow on the re-dealt coin, each taking a recycled record
	// and peer 2's share again; then shares before Release, and a re-arm
	// while the floor sits far ahead.
	w = newCoinScript(n7, 4)
	for r := 1; r <= 3; r++ {
		w.release(r).flood(r, 7, r, r == 2).pruneTo(r - 1)
	}
	w.share(peer(2), 4, shareGenuine).share(peer(2), 5, shareGenuine).share(peer(2), 6, shareGenuine).
		release(7).pruneTo(4).reset(3)
	for r := 1; r <= 5; r++ {
		w.share(peer(2), r, shareGenuine).flood(r, 2, 4, true).release(r).share(peer(3), r, shareForged)
	}
	w.share(peer(7), 6, shareGenuine).release(6).pruneTo(3).reset(3).flood(1, 2, 0, false).release(1).
		flood(1, 7, 3, false).prune(245).releaseRaw(224).reset(200).release(1).flood(1, 7, 6, true)
	cases["reset-rearm"] = w.data
	return cases
}

func TestCommonMatchesOracle(t *testing.T) {
	for name, data := range commonCases() {
		runCommonScript(t, name, data)
	}
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 2+rng.Intn(300))
		rng.Read(data)
		runCommonScript(t, fmt.Sprintf("random-%d", trial), data)
	}
}

// TestCommonCorpusCurrent: the checked-in seed corpus is the named cases'
// bytes, so an edited case cannot leave a stale seed behind.
func TestCommonCorpusCurrent(t *testing.T) {
	for name, data := range commonCases() {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCommonMatchesOracle", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(data)); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

func FuzzCommonMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runCommonScript(t, "fuzz", data)
	})
}

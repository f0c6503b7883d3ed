package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

func msg(from, to types.ProcessID) types.Message {
	return types.Message{From: from, To: to, Payload: &types.DecidePayload{V: types.One}}
}

func TestHoldUntil(t *testing.T) {
	rule := HoldUntil(100, 3)
	if at := rule(msg(1, 3), 7, 5); at != 102 {
		t.Errorf("held delivery at %d, want 102 (hold time + jitter)", at)
	}
	if at := rule(msg(1, 2), 7, 5); at != 7 {
		t.Errorf("unrelated destination delayed: %d, want 7", at)
	}
	if at := rule(msg(1, 3), 150, 149); at != 150 {
		t.Errorf("post-hold delivery delayed: %d, want 150", at)
	}
}

func TestHealPartition(t *testing.T) {
	a := []types.ProcessID{1, 2}
	b := []types.ProcessID{3, 4}
	rule := HealPartition(200, a, b)
	if at := rule(msg(1, 3), 10, 8); at != 202 {
		t.Errorf("cross traffic at %d, want 202", at)
	}
	if at := rule(msg(3, 2), 10, 8); at != 202 {
		t.Errorf("reverse cross traffic at %d, want 202", at)
	}
	if at := rule(msg(1, 2), 10, 8); at != 10 {
		t.Errorf("intra-group traffic delayed: %d", at)
	}
	if at := rule(msg(5, 1), 10, 8); at != 10 {
		t.Errorf("outsider traffic delayed: %d", at)
	}
	if at := rule(msg(1, 3), 250, 249); at != 250 {
		t.Errorf("post-heal traffic delayed: %d", at)
	}
}

// TestReorderDelayReverses: consecutive sends within a span arrive in
// reverse order, and every delivery lands within (now, now+Span].
func TestReorderDelayReverses(t *testing.T) {
	s := ReorderDelay{Span: 10}
	rng := rand.New(rand.NewSource(1))
	var prev Time
	for seq := uint64(1); seq <= 9; seq++ {
		at := s.Deliver(msg(1, 2), 100, seq, rng)
		if at <= 100 || at > 110 {
			t.Fatalf("seq %d delivered at %d, outside (100, 110]", seq, at)
		}
		if seq > 1 && at >= prev {
			t.Fatalf("seq %d at %d not before seq %d at %d", seq, at, seq-1, prev)
		}
		prev = at
	}
	// Degenerate spans fall back to immediate-next-tick delivery.
	if at := (ReorderDelay{Span: 1}).Deliver(msg(1, 2), 5, 3, rng); at != 6 {
		t.Errorf("span 1 delivered at %d, want 6", at)
	}
}

// TestReorderDelayLiveness: a full run under the reorder scheduler still
// delivers everything (no message is postponed forever).
func TestReorderDelayLiveness(t *testing.T) {
	net, err := New(Config{Scheduler: ReorderDelay{Span: 16}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := &countNode{id: 1, peer: 2, kick: true, sendUpTo: 50}
	b := &countNode{id: 2, peer: 1}
	if err := net.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(b); err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered == 0 || stats.Dropped != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if b.got == 0 {
		t.Error("receiver saw nothing")
	}
}

// mapFIFODelay is FIFODelay with one map entry per link and no table: the
// oracle of TestFIFODelayMatchesOracle.
type mapFIFODelay struct {
	Min, Max Time

	last map[link]Time
}

func (s *mapFIFODelay) Deliver(m types.Message, now Time, seq uint64, rng *rand.Rand) Time {
	at := UniformDelay{Min: s.Min, Max: s.Max}.Deliver(m, now, seq, rng)
	l := link{from: m.From, to: m.To}
	if prev, ok := s.last[l]; ok && at <= prev {
		at = prev + 1
	}
	s.last[l] = at
	return at
}

// TestFIFODelayMatchesOracle is the differential test for the FIFO link
// clocks: random sends must get exactly the delivery times the map oracle
// gives, from the same RNG stream. Senders appear in random order, so the
// link table grows while links to not-yet-covered IDs are live; the ID pool
// mixes a cluster's 1..n with the zero, negative and huge IDs a Byzantine
// sender can address; and the delay ranges include zero delay (a link's
// first delivery can be at tick 0) and swapped bounds.
func TestFIFODelayMatchesOracle(t *testing.T) {
	ids := []types.ProcessID{0, -1, math.MinInt, math.MaxInt, maxDenseID, maxDenseID + 1}
	for id := types.ProcessID(1); id <= 100; id++ {
		ids = append(ids, id)
	}
	for _, r := range []struct{ min, max Time }{{1, 20}, {0, 0}, {0, 3}, {20, 1}, {5, 5}} {
		t.Run(fmt.Sprintf("min=%d,max=%d", r.min, r.max), func(t *testing.T) {
			for trial := int64(0); trial < 20; trial++ {
				pick := rand.New(rand.NewSource(trial))
				got, want := NewFIFODelay(r.min, r.max), &mapFIFODelay{Min: r.min, Max: r.max, last: map[link]Time{}}
				gotRNG, wantRNG := rand.New(rand.NewSource(trial)), rand.New(rand.NewSource(trial))
				// A small pool per trial keeps links busy enough to clamp.
				pool := make([]types.ProcessID, 2+pick.Intn(12))
				for i := range pool {
					pool[i] = ids[pick.Intn(len(ids))]
				}
				// Every trial opens on a link whose destination only a later
				// sender brings into the table's range: 1→50, then 50→1,
				// then 1→50 again, which must still see its first send.
				prefix := []types.Message{msg(1, 50), msg(50, 1), msg(1, 50)}
				var now Time
				for seq := uint64(1); seq <= 3000; seq++ {
					m := msg(pool[pick.Intn(len(pool))], pool[pick.Intn(len(pool))])
					if int(seq) <= len(prefix) {
						m = prefix[seq-1]
					}
					a, b := got.Deliver(m, now, seq, gotRNG), want.Deliver(m, now, seq, wantRNG)
					if a != b {
						t.Fatalf("trial %d send %d (%v at %d): delivered at %d, oracle %d", trial, seq, m, now, a, b)
					}
					now += Time(pick.Intn(3))
				}
			}
		})
	}
}

// TestFIFODelayHugeToStaysSparse: destinations far past every sender — a
// registered node with a giant ID, and IDs a Byzantine sender makes up — are
// scheduled through the sparse links and do not widen the link table, which
// stays as wide as its one sender needs.
func TestFIFODelayHugeToStaysSparse(t *testing.T) {
	fifo := NewFIFODelay(1, 20)
	net, err := New(Config{Scheduler: fifo, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big := types.ProcessID(maxDenseID + 1000)
	sink := &sinkNode{id: big}
	if err := net.Add(&oneShotNode{id: 3, peer: big}); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(sink); err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sink.got != 1 || stats.Delivered != 1 {
		t.Fatalf("giant-ID node received %d messages (delivered %d), want 1", sink.got, stats.Delivered)
	}
	rng := rand.New(rand.NewSource(1))
	for _, to := range []types.ProcessID{maxLinkWidth, maxLinkWidth + 1, math.MaxInt, math.MinInt, 0} {
		fifo.Deliver(msg(3, to), 0, 1, rng)
	}
	if fifo.width != 8 || len(fifo.clocks) != 8*8 {
		t.Fatalf("link table is %d wide (%d clocks), want 8 (64)", fifo.width, len(fifo.clocks))
	}
	if len(fifo.sparse) != 6 {
		t.Fatalf("%d sparse links, want 6", len(fifo.sparse))
	}
}

// countNode bounces a bounded rally for the liveness test.
type countNode struct {
	id, peer types.ProcessID
	kick     bool
	sendUpTo int
	sent     int
	got      int
}

func (n *countNode) ID() types.ProcessID { return n.id }
func (n *countNode) Done() bool          { return false }

func (n *countNode) Start() []types.Message {
	if !n.kick {
		return nil
	}
	n.sent++
	return []types.Message{msg(n.id, n.peer)}
}

func (n *countNode) Deliver(types.Message) []types.Message {
	n.got++
	if n.sent >= n.sendUpTo && n.sendUpTo > 0 {
		return nil
	}
	n.sent++
	return []types.Message{msg(n.id, n.peer)}
}

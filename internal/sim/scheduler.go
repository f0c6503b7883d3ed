package sim

import (
	"math"
	"math/rand"

	"repro/internal/types"
)

// UniformDelay delivers each message after an independent uniform random
// delay in [Min, Max]. It models a fair asynchronous network: arbitrary
// per-message delays, hence arbitrary reordering, but eventual delivery.
type UniformDelay struct {
	Min, Max Time
}

// Deliver implements Scheduler.
func (s UniformDelay) Deliver(_ types.Message, now Time, _ uint64, rng *rand.Rand) Time {
	lo, hi := s.Min, s.Max
	if hi < lo {
		lo, hi = hi, lo
	}
	return now + lo + Time(rng.Int63n(int64(hi-lo)+1))
}

// FIFODelay is UniformDelay constrained to per-link FIFO order: a message on
// link (from, to) is never delivered before an earlier message on the same
// link. This is the "FIFO authenticated links" variant that descendants of
// the paper often assume; Bracha's protocol needs only eventual delivery, and
// experiment A3 compares the two.
type FIFODelay struct {
	Min, Max Time

	// The last delivery time of each link: in clocks, a width×width table
	// over IDs 1..width, for links inside it, and in sparse for the rest.
	// The table widens to cover every sender it sees (up to maxLinkWidth).
	// Senders are registered nodes — the network rejects a forged From
	// before scheduling — while a destination is whatever the sender wrote,
	// so an ID a Byzantine node makes up costs one sparse entry, never a
	// wider table.
	clocks []Time
	width  int
	sparse map[link]Time
}

type link struct{ from, to types.ProcessID }

// neverSent marks a table link that has carried nothing yet, which is not
// the same as a last delivery at tick 0.
const neverSent Time = math.MinInt64

// maxLinkWidth caps the link table at 1024² clocks (8 MiB); links of larger
// IDs stay sparse.
const maxLinkWidth = 1024

// NewFIFODelay returns a FIFO scheduler with the given delay range.
func NewFIFODelay(min, max Time) *FIFODelay {
	return &FIFODelay{Min: min, Max: max}
}

// Deliver implements Scheduler.
func (s *FIFODelay) Deliver(m types.Message, now Time, seq uint64, rng *rand.Rand) Time {
	at := UniformDelay{Min: s.Min, Max: s.Max}.Deliver(m, now, seq, rng)
	// IDs 1..width map to 0..width-1; every other ID wraps past width.
	from, to := uint(m.From-1), uint(m.To-1)
	if from >= uint(s.width) && from < maxLinkWidth {
		s.widen(int(from) + 1)
	}
	if from >= uint(s.width) || to >= uint(s.width) {
		l := link{from: m.From, to: m.To}
		if prev, ok := s.sparse[l]; ok && at <= prev {
			at = prev + 1
		}
		if s.sparse == nil {
			s.sparse = make(map[link]Time)
		}
		s.sparse[l] = at
		return at
	}
	c := &s.clocks[from*uint(s.width)+to]
	if *c != neverSent && at <= *c {
		at = *c + 1
	}
	*c = at
	return at
}

// widen grows the link table to cover IDs 1..id, doubling its width so that
// senders seen in ascending order cost O(log n) copies, and moves the sparse
// links that now fit into it.
func (s *FIFODelay) widen(id int) {
	w := max(s.width, 8)
	for w < id {
		w *= 2
	}
	w = min(w, maxLinkWidth)
	clocks := make([]Time, w*w)
	for i := range clocks {
		clocks[i] = neverSent
	}
	for f := 0; f < s.width; f++ {
		copy(clocks[f*w:], s.clocks[f*s.width:(f+1)*s.width])
	}
	for l, at := range s.sparse {
		if from, to := uint(l.from-1), uint(l.to-1); from < uint(w) && to < uint(w) {
			clocks[from*uint(w)+to] = at
			delete(s.sparse, l)
		}
	}
	s.clocks, s.width = clocks, w
}

// Rule post-processes a base scheduler's decision for one message. Returning
// Drop discards the message; any other value replaces the delivery time.
type Rule func(m types.Message, at Time, now Time) Time

// Compose wraps a base scheduler with rules applied in order. It is how
// adversarial schedules are built from reusable pieces (delay these links,
// rush those senders, drop that traffic).
type Compose struct {
	Base  Scheduler
	Rules []Rule
}

// Deliver implements Scheduler.
func (c Compose) Deliver(m types.Message, now Time, seq uint64, rng *rand.Rand) Time {
	at := c.Base.Deliver(m, now, seq, rng)
	for _, r := range c.Rules {
		if at == Drop {
			return Drop
		}
		at = r(m, at, now)
	}
	return at
}

// Duplicate implements Duplicator by forwarding to the base scheduler, so a
// duplicating family (LossyDelay) keeps duplicating under composed rules.
// The duplicate copy itself bypasses the rules: it is the link's artifact,
// not a fresh send the adversary reschedules. Bases without the extension
// never duplicate.
func (c Compose) Duplicate(m types.Message, at, now Time, rng *rand.Rand) (Time, bool) {
	if d, ok := c.Base.(Duplicator); ok {
		return d.Duplicate(m, at, now, rng)
	}
	return 0, false
}

// DelayLinks returns a Rule adding extra delay to every message on the given
// links — the adversary's basic tool for holding back traffic between chosen
// correct processes.
func DelayLinks(extra Time, links ...[2]types.ProcessID) Rule {
	set := make(map[link]bool, len(links))
	for _, l := range links {
		set[link{from: l[0], to: l[1]}] = true
	}
	return func(m types.Message, at, _ Time) Time {
		if set[link{from: m.From, to: m.To}] {
			return at + extra
		}
		return at
	}
}

// RushFrom returns a Rule delivering every message sent by the given
// processes immediately (at the current time): the classic "rushing
// adversary" whose messages always arrive first.
func RushFrom(ps ...types.ProcessID) Rule {
	set := make(map[types.ProcessID]bool, len(ps))
	for _, p := range ps {
		set[p] = true
	}
	return func(m types.Message, at, now Time) Time {
		if set[m.From] {
			return now
		}
		return at
	}
}

// DropLinks returns a Rule dropping all traffic on the given links. Dropping
// correct-to-correct traffic violates the asynchronous model's eventual
// delivery; use only in failure-injection tests (the point is to watch the
// checkers catch the resulting liveness loss).
func DropLinks(links ...[2]types.ProcessID) Rule {
	set := make(map[link]bool, len(links))
	for _, l := range links {
		set[link{from: l[0], to: l[1]}] = true
	}
	return func(m types.Message, at, _ Time) Time {
		if set[link{from: m.From, to: m.To}] {
			return Drop
		}
		return at
	}
}

// DropFrom returns a Rule dropping every message sent by the given processes
// (simulates a crash of those senders at time zero when applied from the
// start).
func DropFrom(ps ...types.ProcessID) Rule {
	set := make(map[types.ProcessID]bool, len(ps))
	for _, p := range ps {
		set[p] = true
	}
	return func(m types.Message, at, _ Time) Time {
		if set[m.From] {
			return Drop
		}
		return at
	}
}

// HoldUntil returns a Rule that holds every message addressed to the given
// processes until at least time t — the crash-then-rejoin scenario: the
// victims are unreachable for a prefix of the run and then receive everything
// at once (a crash-restart with redelivery). Unlike DropFrom this stays
// inside the asynchronous model: every message is still eventually delivered,
// so liveness must survive the rejoin flood.
func HoldUntil(t Time, ps ...types.ProcessID) Rule {
	set := make(map[types.ProcessID]bool, len(ps))
	for _, p := range ps {
		set[p] = true
	}
	return func(m types.Message, at, now Time) Time {
		if set[m.To] && at < t {
			// Carry the base scheduler's jitter past the hold so held
			// messages keep a deterministic but shuffled arrival order.
			return t + (at - now)
		}
		return at
	}
}

// HealPartition returns a Rule that freezes all traffic between two groups
// until the heal time, after which the network behaves normally — the
// network-split-then-heal scenario. During the split each side sees only
// itself (plus any process in neither group, e.g. Byzantine colluders, whose
// traffic is unaffected); at heal the queued cross-partition messages arrive
// in a burst.
func HealPartition(heal Time, groupA, groupB []types.ProcessID) Rule {
	inA := make(map[types.ProcessID]bool, len(groupA))
	for _, p := range groupA {
		inA[p] = true
	}
	inB := make(map[types.ProcessID]bool, len(groupB))
	for _, p := range groupB {
		inB[p] = true
	}
	return func(m types.Message, at, now Time) Time {
		cross := (inA[m.From] && inB[m.To]) || (inB[m.From] && inA[m.To])
		if cross && at < heal {
			return heal + (at - now)
		}
		return at
	}
}

// ReorderDelay is an adversarial reordering scheduler: within a sliding span
// of Span ticks it delivers newest-first (a message's delay shrinks as its
// send sequence number grows), so consecutive sends arrive in reverse order
// and later traffic routinely overtakes earlier traffic. Delivery always
// happens within (now, now+Span], so eventual delivery — the only guarantee
// the asynchronous model makes — still holds.
type ReorderDelay struct {
	Span Time
}

// Deliver implements Scheduler.
func (s ReorderDelay) Deliver(_ types.Message, now Time, seq uint64, _ *rand.Rand) Time {
	span := s.Span
	if span < 2 {
		return now + 1
	}
	return now + span - Time(seq%uint64(span))
}

// Immediate delivers everything with zero delay in send order — useful for
// unit tests that want synchronous, predictable executions.
type Immediate struct{}

// Deliver implements Scheduler.
func (Immediate) Deliver(_ types.Message, now Time, _ uint64, _ *rand.Rand) Time { return now }

// LossyDelay models lossy, duplicating, jittery links under ARQ: each send
// is retransmitted until a copy gets through — every lost attempt (LossPct%
// each, independently) adds RetransmitLag to the delivery delay — and with
// DupPct% probability a stale duplicate of the frame also arrives later.
// Loss therefore converts to delay, never to silence, so the asynchronous
// model's eventual-delivery guarantee survives arbitrarily hostile loss
// rates; duplicates exercise the idempotence that quorum counting provides
// by construction. All randomness flows from the run RNG, so a lossy run
// replays exactly like any other.
type LossyDelay struct {
	Base          UniformDelay
	LossPct       int  // per-attempt loss probability, percent (clamped to 95)
	DupPct        int  // per-send duplication probability, percent
	RetransmitLag Time // extra delay per lost attempt
}

// Deliver implements Scheduler.
func (s LossyDelay) Deliver(m types.Message, now Time, seq uint64, rng *rand.Rand) Time {
	at := s.Base.Deliver(m, now, seq, rng)
	loss := s.LossPct
	if loss > 95 {
		loss = 95 // a link that never delivers leaves the model
	}
	for loss > 0 && int(rng.Int63n(100)) < loss {
		at += s.RetransmitLag
	}
	return at
}

// Duplicate implements Duplicator: a duplicate, when one occurs, trails the
// primary copy by a fresh jitter in (0, RetransmitLag].
func (s LossyDelay) Duplicate(_ types.Message, at, _ Time, rng *rand.Rand) (Time, bool) {
	if s.DupPct <= 0 || int(rng.Int63n(100)) >= s.DupPct {
		return 0, false
	}
	lag := s.RetransmitLag
	if lag < 1 {
		lag = 1
	}
	return at + 1 + Time(rng.Int63n(int64(lag))), true
}

// TopologyDelay is the local-broadcast / topology-constrained model (Khan &
// Vaidya): processes are arranged on a ring and a process reaches only the
// neighbours within Degree ring hops directly. Traffic between non-adjacent
// processes is relayed along the ring overlay, paying HopLag extra delay per
// hop past the first; the graph is connected for any Degree ≥ 1, so every
// message is still eventually delivered — but the effective diameter
// ⌈(n/2)/Degree⌉ stretches delivery times, which is exactly the liveness
// coordinate the parameter search explores. Processes outside 1..N (foreign
// IDs a Byzantine node might address) are treated as adjacent to everyone.
type TopologyDelay struct {
	Base   UniformDelay
	N      int  // ring size (process IDs 1..N)
	Degree int  // direct reach in ring hops (clamped to ≥ 1)
	HopLag Time // extra delay per relay hop
}

// Deliver implements Scheduler.
func (s TopologyDelay) Deliver(m types.Message, now Time, seq uint64, rng *rand.Rand) Time {
	at := s.Base.Deliver(m, now, seq, rng)
	return at + s.HopLag*Time(s.hops(m.From, m.To)-1)
}

// hops returns the relay distance between two processes (at least 1; 1 for
// loopback and foreign IDs).
func (s TopologyDelay) hops(from, to types.ProcessID) int {
	fi, ti := int(from), int(to)
	if fi < 1 || fi > s.N || ti < 1 || ti > s.N || fi == ti {
		return 1
	}
	d := fi - ti
	if d < 0 {
		d = -d
	}
	if ring := s.N - d; ring < d {
		d = ring
	}
	deg := s.Degree
	if deg < 1 {
		deg = 1
	}
	return (d + deg - 1) / deg
}

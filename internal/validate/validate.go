// Package validate implements the second contribution of the PODC-84 paper:
// message validation. A correct process counts a step message toward its
// n−f wait only once the message is *justified* — once some set of n−f
// already-justified messages of the previous step could have caused a
// correct process, following the protocol's transition function, to send it.
// Combined with reliable broadcast (which fixes one message per sender and
// slot), validation confines Byzantine processes to sending *plausible*
// values, which is what lifts resilience from Ben-Or's n > 5f to the
// optimal n > 3f.
//
// Justification is recursive, exactly as in the paper: justifying sets draw
// only from messages that are themselves justified, grounded at round 1
// step 1 where every input value is legitimate. The Validator maintains this
// fixpoint incrementally: delivered messages wait in a pending set and move
// into the justified tallies as soon as their predicate fires; since every
// predicate is monotone in the tallies, acceptance order does not matter and
// nothing ever needs to be retracted.
//
// Existence of a justifying (n−f)-subset is decided in O(1) from per-value
// counts rather than by subset search; see the feasibility helpers at the
// bottom for the arithmetic arguments.
//
// The protocol's transition rules being validated (binary values; majority
// ties broken to 0, a convention both the sender and the validator share):
//
//	step 1 (round 1):  any input value.
//	step 1 (round r):  v adopted from ≥ f+1 D(v) in step 3 of round r−1, or
//	                   any value if a coin fallback (< f+1 of each D) was
//	                   possible.
//	step 2:            v is the majority of some n−f justified step-1
//	                   messages.
//	step 3, D(v):      v held > n/2 of some n−f justified step-2 messages.
//	step 3, plain v:   some n−f justified step-2 messages have no > n/2
//	                   value, and v was justifiable as the sender's step-2
//	                   message (its step-1 majority).
//
// # Pruning contract
//
// The consensus core calls PruneBelow(r−1) on entering round r, releasing
// the per-sender dedup entries (the seen set) of older rounds. The
// justification digests stay: per touched round, eight counts by (step,
// value), the whole summary every predicate reads. A straggler's late
// message for a pruned round is therefore judged and folded exactly as if
// nothing had been pruned, which is why pruning is invisible to the golden
// replays. Duplicate suppression below the floor is left to reliable
// broadcast's integrity (one delivery per slot, ever). Pending messages are
// never pruned, so late folds still happen.
//
// # State layout
//
// Every reliably delivered step message passes through Record, and the
// replicated log re-arms one Validator per replica at every slot (Reset), so
// the state is dense where correct traffic lands, spends nothing per message
// there, and is cleared in place rather than rebuilt:
//
//   - the seen set is a ring of seenSpan rounds starting at the floor, one
//     n-bit row per (round, step), a peer's bit at its quorum.Spec.Index;
//   - the pending set is a slice kept sorted in fold-visit order, which
//     drain compacts in place;
//   - the justification digests are a slice indexed from round 1 that
//     grows at most roundsAhead rounds past its end.
//
// What the dense forms cannot hold — a sender that is not a peer, a seen
// key past the ring, a digest past the slice's reach — goes to an overflow
// map that stays nil until used. A Byzantine sender can put any round
// number in a well-formed message, and such a message costs one overflow
// entry, never storage proportional to the round number.
package validate

import (
	"math/bits"
	"slices"

	"repro/internal/quorum"
	"repro/internal/types"
)

// Validator tracks justified step messages and answers justification
// queries. One Validator serves one process for one consensus instance. Not
// safe for concurrent use.
type Validator struct {
	spec quorum.Spec
	lax  bool // ablation A1: accept every well-formed message

	// seen is the per-sender dedup set for rounds at or above the floor:
	// seenSpan rows of 3·seenWords words, round r's at (r mod seenSpan), for
	// max(floor, 1) <= r < max(floor, 1)+seenSpan; bit i of a (round, step)
	// row is the peer at quorum.Spec.Index i. seenOver holds the keys the
	// ring cannot (a non-peer sender, a round past the ring); nil until used.
	seen      []uint64
	seenWords int
	seenOver  map[slotKey]struct{}

	// pending holds the recorded, not yet justified messages, sorted by
	// keyLess — the order drain visits them in.
	pending []pendingMsg

	// rounds[r−1] is round r's justification digest: counts of justified
	// messages by (step, value). Retained for the whole execution — the
	// summary every justification query reads — where the seen set (the
	// dominant per-round retainer) is pruned below the floor. roundsOver
	// holds the digests of rounds more than roundsAhead past the slice's
	// end, nil until used; a round moves into the slice when the slice
	// grows to reach it.
	rounds     []tally
	roundsOver map[int]*tally

	// floor is the seen-set watermark: dedup entries for rounds below it
	// have been released and are no longer recorded (see the pruning
	// contract in the package doc).
	floor int

	// foldScratch is reused across drain calls so the steady-state Record
	// path allocates nothing. It backs Record's return value, which is
	// therefore only valid until the next Record call — callers consume it
	// immediately (the consensus core folds each Accepted into its
	// quorum-wait counts before returning).
	foldScratch []Accepted
}

// seenSpan is the round span of the seen ring. The consensus core sets the
// floor to r−1 on entering round r, so the ring holds the previous round,
// the current one and two ahead — the span of reliable broadcast's
// instance window.
const seenSpan = 4

// roundsAhead is how far past its end the digest slice grows to take a
// round; a round further out goes to the overflow map.
const roundsAhead = 4

// slotKey identifies the one message a sender may contribute per (round,
// step) slot — reliable broadcast guarantees uniqueness for correct
// processes; the key deduplicates Byzantine attempts.
type slotKey struct {
	sender types.ProcessID
	round  int
	step   types.Step
}

// pendingMsg is one recorded message waiting for its justification.
type pendingMsg struct {
	key slotKey
	m   types.StepMessage
}

// tally holds per-round counts of justified messages, by step and value.
// Counts are of distinct senders (guaranteed by slotKey dedup). touched
// marks a round some fold or justification query has read, the rounds
// JustificationsRetained counts.
type tally struct {
	step1      [2]int
	step2      [2]int
	step3Plain [2]int
	step3D     [2]int
	touched    bool
}

// New creates a Validator for the given system spec.
func New(spec quorum.Spec) *Validator {
	words := (spec.N() + 63) / 64 // one bit per peer
	v := &Validator{
		spec:      spec,
		seen:      make([]uint64, seenSpan*3*words),
		seenWords: words,
	}
	v.Reset()
	return v
}

// Reset re-arms the validator for a new consensus instance: it returns to
// the state New (or NewLax) produces, and New reaches that state through it.
// Nothing recorded stays — no seen key, pending message, digest or floor —
// but the seen ring and the pending, digest and fold slices keep their
// storage. The overflow maps are dropped, nil until used as New leaves them.
func (v *Validator) Reset() {
	clear(v.seen)
	*v = Validator{
		spec: v.spec, lax: v.lax,
		seen: v.seen, seenWords: v.seenWords,
		pending:     v.pending[:0],
		rounds:      v.rounds[:0],
		foldScratch: v.foldScratch[:0],
	}
}

// NewLax creates a Validator that skips justification and accepts every
// well-formed message immediately. It exists solely for ablation A1
// ("validation off"), which demonstrates why the paper's validation matters;
// never use it otherwise.
func NewLax(spec quorum.Spec) *Validator {
	v := New(spec)
	v.lax = true
	return v
}

// Accepted is one message folded into the justified tallies: the consensus
// node counts these, in fold order, in its per-(round, step) quorum waits,
// so node acceptance and validator tallies can never disagree.
type Accepted struct {
	Sender types.ProcessID
	Msg    types.StepMessage
}

// Record ingests a reliably-delivered step message from sender and returns
// every message newly folded into the justified tallies, in fold order —
// possibly none (the new message is pending), possibly several (its arrival
// cascaded older pending messages in). The returned slice aliases an
// internal scratch buffer and is valid only until the next Record call.
func (v *Validator) Record(sender types.ProcessID, m types.StepMessage) []Accepted {
	if !wellFormed(m) {
		return nil
	}
	k := slotKey{sender: sender, round: m.Round, step: m.Step}
	// Dedup entries are kept only for rounds at or above the floor;
	// below it, uniqueness per slot is the caller's contract (RBC integrity)
	// and recording the key would regrow released state.
	if m.Round >= v.floor && !v.markSeen(k) {
		return nil
	}
	v.addPending(k, m)
	return v.drain()
}

// seenBit returns k's word index and bit in the ring, or ok = false if the
// ring cannot hold k. k.round must be at or above the floor.
func (v *Validator) seenBit(k slotKey) (word int, bit uint64, ok bool) {
	i, peer := v.spec.Index(k.sender)
	if !peer || k.round-max(v.floor, 1) >= seenSpan {
		return 0, 0, false
	}
	row := (k.round%seenSpan)*3 + int(k.step) - 1
	return row*v.seenWords + i>>6, 1 << (i & 63), true
}

// markSeen records k in the seen set and reports whether it was new.
func (v *Validator) markSeen(k slotKey) bool {
	if w, bit, ok := v.seenBit(k); ok {
		if v.seen[w]&bit != 0 {
			return false
		}
		v.seen[w] |= bit
		return true
	}
	if _, dup := v.seenOver[k]; dup {
		return false
	}
	if v.seenOver == nil {
		v.seenOver = make(map[slotKey]struct{})
	}
	v.seenOver[k] = struct{}{}
	return true
}

// addPending inserts m at k's place in the sorted pending set. A key already
// pending (possible only below the floor, where nothing is deduplicated)
// takes the newer message, as a keyed assignment would.
func (v *Validator) addPending(k slotKey, m types.StepMessage) {
	i := len(v.pending)
	for i > 0 && keyLess(k, v.pending[i-1].key) {
		i--
	}
	if i > 0 && v.pending[i-1].key == k {
		v.pending[i-1].m = m
		return
	}
	v.pending = slices.Insert(v.pending, i, pendingMsg{key: k, m: m})
}

// SeenRetained returns how many per-sender dedup entries the validator
// currently holds — the retainer PruneBelow releases.
func (v *Validator) SeenRetained() int {
	n := len(v.seenOver)
	for _, w := range v.seen {
		n += bits.OnesCount64(w)
	}
	return n
}

// JustificationsRetained returns how many per-round justification digests
// the validator holds — the residue PruneBelow deliberately keeps until the
// next Reset (one per touched round). Owners bound it by instance instead:
// the replicated log re-arms each replica's validator at every slot
// (experiment E12).
func (v *Validator) JustificationsRetained() int {
	n := len(v.roundsOver)
	for i := range v.rounds {
		if v.rounds[i].touched {
			n++
		}
	}
	return n
}

// PruneBelow releases the per-sender dedup entries of every round below r
// and stops recording new ones there. The justification digests (per-round
// tallies) and the pending set are deliberately retained — see the
// pruning contract in the package doc — so justification answers, fold
// order, and late folds are identical to an unpruned validator's.
func (v *Validator) PruneBelow(r int) {
	if r <= v.floor {
		return
	}
	// Clear the ring rows of the released rounds: those below r, at most
	// the whole span. r > floor >= 0, so neither difference overflows.
	lo := max(v.floor, 1)
	for d := 0; d < seenSpan && d < r-lo; d++ {
		row := (lo + d) % seenSpan * 3 * v.seenWords
		clear(v.seen[row : row+3*v.seenWords])
	}
	v.floor = r
	// order-free: each key is deleted or moved to its own ring bit
	for k := range v.seenOver {
		if k.round < r {
			delete(v.seenOver, k)
		} else if w, bit, ok := v.seenBit(k); ok {
			v.seen[w] |= bit
			delete(v.seenOver, k)
		}
	}
}

// drain runs the fixpoint: move pending messages whose predicate fires into
// the tallies, repeating until nothing moves (each move can enable others).
// Within one pass, candidates are visited in a deterministic order (by
// round, then step, then sender) so executions replay identically; the
// pass compacts the messages it keeps to the front of pending.
func (v *Validator) drain() []Accepted {
	folded := v.foldScratch[:0]
	for moved := true; moved; {
		moved = false
		kept := v.pending[:0]
		for _, p := range v.pending {
			if !v.justified(p.m) {
				kept = append(kept, p)
				continue
			}
			v.fold(p.m)
			folded = append(folded, Accepted{Sender: p.key.sender, Msg: p.m})
			moved = true
		}
		v.pending = kept
	}
	v.foldScratch = folded
	if len(folded) == 0 {
		return nil
	}
	return folded
}

// keyLess orders slot keys by round, step, then sender.
func keyLess(a, b slotKey) bool {
	if a.round != b.round {
		return a.round < b.round
	}
	if a.step != b.step {
		return a.step < b.step
	}
	return a.sender < b.sender
}

// fold adds a justified message to its round tally.
func (v *Validator) fold(m types.StepMessage) {
	t := v.tally(m.Round)
	switch {
	case m.Step == types.Step1:
		t.step1[m.V]++
	case m.Step == types.Step2:
		t.step2[m.V]++
	case m.D:
		t.step3D[m.V]++
	default:
		t.step3Plain[m.V]++
	}
}

// tally returns round's justification digest (round >= 1), marking it
// touched. The pointer is valid until the next call.
func (v *Validator) tally(round int) *tally {
	if round-len(v.rounds) > roundsAhead {
		t, ok := v.roundsOver[round]
		if !ok {
			if v.roundsOver == nil {
				v.roundsOver = make(map[int]*tally)
			}
			t = &tally{touched: true}
			v.roundsOver[round] = t
		}
		return t
	}
	for len(v.rounds) < round {
		t := tally{}
		if over, ok := v.roundsOver[len(v.rounds)+1]; ok {
			t = *over
			delete(v.roundsOver, len(v.rounds)+1)
		}
		v.rounds = append(v.rounds, t)
	}
	t := &v.rounds[round-1]
	t.touched = true
	return t
}

func wellFormed(m types.StepMessage) bool {
	return m.Round >= 1 && m.Step.Valid() && m.V.Valid() && (!m.D || m.Step == types.Step3)
}

func (v *Validator) justified(m types.StepMessage) bool {
	if v.lax {
		return true // ablation A1: validation disabled
	}
	q := v.spec.Quorum()
	switch m.Step {
	case types.Step1:
		if m.Round == 1 {
			return true
		}
		prev := v.tally(m.Round - 1)
		return prev.canAdopt(m.V, q, v.spec.Adopt()) || prev.canCoin(q, v.spec.F())
	case types.Step2:
		return v.tally(m.Round).canMajority(m.V, q)
	case types.Step3:
		t := v.tally(m.Round)
		if m.D {
			return t.canSuperMajority(m.V, q, v.spec.SuperMajority())
		}
		return t.canNoSuperMajority(q, v.spec.SuperMajority()) && t.canMajority(m.V, q)
	default:
		return false
	}
}

// ---- Feasibility predicates -------------------------------------------
//
// Each predicate answers: does there exist a multiset of exactly q justified
// previous-step messages with the required shape? Counts are per value, so
// existence reduces to extremal arithmetic: put as many of the favourable
// value as available (capped at q), fill the remainder with the other value,
// and check the constraint. All predicates are monotone nondecreasing in
// every count.

// canMajority: some q-subset of the round's step-1 messages has majority v
// (ties to 0).
func (t *tally) canMajority(v types.Value, q int) bool {
	c := t.step1
	if c[0]+c[1] < q {
		return false
	}
	a := min(c[v], q) // favourable votes, maximized
	b := q - a        // the rest are the other value (available: total ≥ q)
	if v == types.Zero {
		return a >= b // 0 wins ties
	}
	return a > b
}

// canSuperMajority: some q-subset of step-2 messages holds > n/2 copies of
// v, i.e. at least sm = ⌊n/2⌋+1.
func (t *tally) canSuperMajority(v types.Value, q, sm int) bool {
	c := t.step2
	return c[0]+c[1] >= q && min(c[v], q) >= sm
}

// canNoSuperMajority: some q-subset of step-2 messages has no value reaching
// sm — both values capped at sm−1.
func (t *tally) canNoSuperMajority(q, sm int) bool {
	c := t.step2
	return min(c[0], sm-1)+min(c[1], sm-1) >= q
}

// canAdopt: some q-subset of step-3 messages contains ≥ f+1 D(v) — the
// sender could have adopted (or decided) v.
func (t *tally) canAdopt(v types.Value, q, adopt int) bool {
	total := t.step3Plain[0] + t.step3Plain[1] + t.step3D[0] + t.step3D[1]
	return total >= q && min(t.step3D[v], q) >= adopt
}

// canCoin: some q-subset of step-3 messages contains at most f D(b) for each
// value b — the sender could have fallen through to the coin, making any
// next-round value legitimate. Plain messages are unconstrained; at most f
// of each D value may be included.
func (t *tally) canCoin(q, f int) bool {
	plain := t.step3Plain[0] + t.step3Plain[1]
	return plain+min(t.step3D[0], f)+min(t.step3D[1], f) >= q
}

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
package validate

import (
	"maps"
	"repro/internal/quorum"
	"repro/internal/types"
)

// Validator tracks justified step messages and answers justification
// queries. One Validator serves one process for one consensus instance. Not
// safe for concurrent use.
type Validator struct {
	spec quorum.Spec
	lax  bool // ablation A1: accept every well-formed message

	seen    map[slotKey]bool
	pending map[slotKey]types.StepMessage

	// rounds[r] is round r's justification digest: counts of justified
	// messages by (step, value). Retained for the whole execution — 64
	// bytes per touched round, the summary every justification query reads
	// — where the seen set (per-sender, the dominant per-round retainer)
	// is pruned below the floor. Deliberately a map, not a dense array:
	// a Byzantine sender can put any round number in a well-formed message,
	// and a map spends one entry on it where a round-indexed array would
	// spend the round number.
	rounds map[int]*tally

	// floor is the seen-set watermark: dedup entries for rounds below it
	// have been released and are no longer recorded (see the pruning
	// contract in the package doc).
	floor int

	// keyScratch and foldScratch are reused across drain calls so the
	// steady-state Record path (empty or tiny pending set) allocates
	// nothing. foldScratch backs Record's return value, which is therefore
	// only valid until the next Record call — callers consume it
	// immediately (the consensus core folds each Accepted into its
	// quorum-wait counts before returning).
	keyScratch  []slotKey
	foldScratch []Accepted
}

// slotKey identifies the one message a sender may contribute per (round,
// step) slot — reliable broadcast guarantees uniqueness for correct
// processes; the key deduplicates Byzantine attempts.
type slotKey struct {
	sender types.ProcessID
	round  int
	step   types.Step
}

// tally holds per-round counts of justified messages, by step and value.
// Counts are of distinct senders (guaranteed by slotKey dedup).
type tally struct {
	step1      [2]int
	step2      [2]int
	step3Plain [2]int
	step3D     [2]int
}

// New creates a Validator for the given system spec.
func New(spec quorum.Spec) *Validator {
	return &Validator{
		spec:    spec,
		seen:    make(map[slotKey]bool),
		pending: make(map[slotKey]types.StepMessage),
		rounds:  make(map[int]*tally),
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
	if v.seen[k] {
		return nil
	}
	// Dedup entries are kept only for rounds at or above the floor;
	// below it, uniqueness per slot is the caller's contract (RBC integrity)
	// and recording the key would regrow released state.
	if m.Round >= v.floor {
		v.seen[k] = true
	}
	v.pending[k] = m
	return v.drain()
}

// SeenRetained returns how many per-sender dedup entries the validator
// currently holds — the retainer PruneBelow releases.
func (v *Validator) SeenRetained() int { return len(v.seen) }

// JustificationsRetained returns how many per-round justification digests
// the validator holds — the residue PruneBelow deliberately keeps for the
// validator's lifetime (64 bytes per touched round). Owners bound it by
// lifetime instead: the replicated log drops each slot's instance, validator
// included, at commit (experiment E12).
func (v *Validator) JustificationsRetained() int { return len(v.rounds) }

// PruneBelow releases the per-sender dedup entries of every round below r
// and stops recording new ones there. The justification digests (per-round
// tallies) and the pending set are deliberately retained — see the
// pruning contract in the package doc — so justification answers, fold
// order, and late folds are identical to an unpruned validator's.
func (v *Validator) PruneBelow(r int) {
	if r <= v.floor {
		return
	}
	v.floor = r
	maps.DeleteFunc(v.seen, func(k slotKey, _ bool) bool { return k.round < r })
}

// drain runs the fixpoint: move pending messages whose predicate fires into
// the tallies, repeating until nothing moves (each move can enable others).
// Within one pass, candidates are visited in a deterministic order (by
// sender, then round, then step) so executions replay identically.
func (v *Validator) drain() []Accepted {
	folded := v.foldScratch[:0]
	for moved := true; moved; {
		moved = false
		for _, k := range v.pendingKeys() {
			m := v.pending[k]
			if !v.justified(m) {
				continue
			}
			delete(v.pending, k)
			v.fold(m)
			folded = append(folded, Accepted{Sender: k.sender, Msg: m})
			moved = true
		}
	}
	v.foldScratch = folded
	if len(folded) == 0 {
		return nil
	}
	return folded
}

// pendingKeys returns the pending slot keys in a deterministic order. The
// slice is scratch, overwritten by the next call.
func (v *Validator) pendingKeys() []slotKey {
	keys := v.keyScratch[:0]
	// order-free: keys sorted below
	for k := range v.pending {
		keys = append(keys, k)
	}
	v.keyScratch = keys
	// Insertion sort: the pending set is tiny (usually empty or a handful
	// of not-yet-justified messages), and unlike sort.Slice this never
	// allocates — the hot Record path must stay garbage-free.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
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

// tally returns round's justification digest, creating it on first touch
// (one 64-byte entry per touched round, whatever the round number; the
// steady-state Record path only reads existing entries).
func (v *Validator) tally(round int) *tally {
	t, ok := v.rounds[round]
	if !ok {
		t = &tally{}
		v.rounds[round] = t
	}
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

package validate

// mapValidator is the validator as it stood before the seen set, the pending
// set and the justification digests moved to dense slices: three maps keyed
// the obvious way, the pending keys sorted on every drain. Its code is kept
// verbatim as the differential oracle FuzzValidatorMatchesMap holds the
// production Validator to; it shares slotKey, tally (whose touched flag it
// never reads), keyLess, wellFormed and the feasibility predicates with it.

import (
	"maps"

	"repro/internal/quorum"
	"repro/internal/types"
)

// mapValidator tracks justified step messages and answers justification
// queries, as Validator does.
type mapValidator struct {
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

// newMapValidator creates a mapValidator for the given system spec.
func newMapValidator(spec quorum.Spec) *mapValidator {
	return &mapValidator{
		spec:    spec,
		seen:    make(map[slotKey]bool),
		pending: make(map[slotKey]types.StepMessage),
		rounds:  make(map[int]*tally),
	}
}

// newLaxMapValidator creates a mapValidator that skips justification and accepts every
// well-formed message immediately. It exists solely for ablation A1
// ("validation off"), which demonstrates why the paper's validation matters;
// never use it otherwise.
func newLaxMapValidator(spec quorum.Spec) *mapValidator {
	v := newMapValidator(spec)
	v.lax = true
	return v
}

// Record ingests a reliably-delivered step message from sender and returns
// every message newly folded into the justified tallies, in fold order —
// possibly none (the new message is pending), possibly several (its arrival
// cascaded older pending messages in). A sender that is not a peer is
// dropped. The returned slice aliases an internal scratch buffer and is
// valid only until the next Record call.
func (v *mapValidator) Record(sender types.ProcessID, m types.StepMessage) []Accepted {
	if _, peer := v.spec.Index(sender); !peer || !wellFormed(m) {
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
func (v *mapValidator) SeenRetained() int { return len(v.seen) }

// JustificationsRetained returns how many per-round justification digests
// the validator holds — the residue PruneBelow deliberately keeps for the
// validator's lifetime (64 bytes per touched round). Owners bound it by
// lifetime instead: the replicated log drops each slot's instance, validator
// included, at commit (experiment E12).
func (v *mapValidator) JustificationsRetained() int { return len(v.rounds) }

// PruneBelow releases the per-sender dedup entries of every round below r
// and stops recording new ones there. The justification digests (per-round
// tallies) and the pending set are deliberately retained — see the
// pruning contract in the package doc — so justification answers, fold
// order, and late folds are identical to an unpruned validator's.
func (v *mapValidator) PruneBelow(r int) {
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
func (v *mapValidator) drain() []Accepted {
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
func (v *mapValidator) pendingKeys() []slotKey {
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

// fold adds a justified message to its round tally.
func (v *mapValidator) fold(m types.StepMessage) {
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
func (v *mapValidator) tally(round int) *tally {
	t, ok := v.rounds[round]
	if !ok {
		t = &tally{}
		v.rounds[round] = t
	}
	return t
}

func (v *mapValidator) justified(m types.StepMessage) bool {
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

// Justified reports whether m could have been sent by a correct process,
// judged against the currently justified tallies. It is monotone: once true
// for a message, it stays true.
func (v *mapValidator) Justified(m types.StepMessage) bool {
	return wellFormed(m) && v.justified(m)
}

// Tallied returns how many messages have been folded into the justified
// tallies, which are never pruned.
func (v *mapValidator) Tallied() int {
	n := 0
	for _, t := range v.rounds {
		for _, c := range [][2]int{t.step1, t.step2, t.step3Plain, t.step3D} {
			n += c[0] + c[1]
		}
	}
	return n
}

// Pending returns how many recorded messages are still unjustified (for
// correct traffic this returns to 0 as rounds complete).
func (v *mapValidator) Pending() int { return len(v.pending) }

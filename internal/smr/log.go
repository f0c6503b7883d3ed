package smr

import (
	"sort"

	"repro/internal/ckpt"
	"repro/internal/types"
	"repro/internal/wire"
)

// commitLog is the log plane: the committed entries from base upward.
// Entries below base were truncated at a certified checkpoint cut and are
// summarized by digest, the chained digest over the complete history
// [0, slot).
type commitLog struct {
	entries []Entry
	base    int
	digest  uint64
}

// from returns the index of the first retained entry with Slot >= slot.
// Entries are ordered by slot but a slot may hold a whole batch, so it is
// found by search, not arithmetic.
func (l *commitLog) from(slot int) int {
	return sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Slot >= slot })
}

// commit appends the entries of a decided slot and returns them. A
// 0-decision commits one empty entry. A 1-decision commits the candidate,
// and with batching a batch body unbatches into one entry per bundled
// command, in batch order, each digest-folded individually so every
// entry-granular invariant (checkpoint cuts, state transfer, suffix
// re-commit) holds with batching on. A body that is not a canonical batch
// (a Byzantine proposer can disseminate any bytes) commits as a single raw
// entry — the same deterministic rule at every replica.
func (l *commitLog) commit(slot int, proposer types.ProcessID, v types.Value, body string, batched bool) []Entry {
	n := len(l.entries)
	switch {
	case v != types.One:
		l.add(Entry{Slot: slot, Proposer: proposer})
	case batched && body != Noop:
		if cmds, err := wire.DecodeBatch(body); err == nil {
			for i, cmd := range cmds {
				l.add(Entry{Slot: slot, Index: i, Proposer: proposer, Command: cmd})
			}
		} else {
			l.add(Entry{Slot: slot, Proposer: proposer, Command: body})
		}
	default:
		l.add(Entry{Slot: slot, Proposer: proposer, Command: body})
	}
	return l.entries[n:]
}

// add appends one entry and folds it into the chained digest.
func (l *commitLog) add(e Entry) {
	l.entries = append(l.entries, e)
	l.digest = ckpt.FoldEntry(l.digest, e.Slot, e.Proposer, e.Command)
}

// truncate drops committed entries below the floor; digest keeps covering
// them (the certificate pinned the prefix digest). The slots past the new
// length are zeroed: a stale entry left there would keep its batch body
// alive until an append overwrote it.
func (l *commitLog) truncate(floor int) {
	if floor <= l.base {
		return
	}
	n := copy(l.entries, l.entries[l.from(floor):])
	clear(l.entries[n:])
	l.entries = l.entries[:n]
	l.base = floor
}

// reset empties the log at a cut whose prefix digest the certificate
// pinned: what a state-transfer install or a boot from the durable store
// resumes from.
func (l *commitLog) reset(cut int, digest uint64) {
	clear(l.entries) // as in truncate: no stale entry keeps a body alive
	l.entries = l.entries[:0]
	l.base = cut
	l.digest = digest
}

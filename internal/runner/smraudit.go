package runner

import (
	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
)

// This file is the log auditor of an SMR run: it tails a replica's log after
// every delivery to that replica (nothing else can make it commit) — O(1)
// while its frontier stands still, one AppendLogSince of the new entries
// into a reused buffer when it moved — and owns the things the tail feeds —
//
//   - a canonical entry per log position (first observer wins) against which
//     every other replica's entries are checked: mismatches counts
//     cross-replica log disagreements, the SMR form of an agreement
//     violation;
//   - the chained log digest and a shadow state machine for the reference
//     replica (the first live one), captured exactly at the Slots boundary —
//     the run-to-run comparison point that must be bitwise identical
//     whatever the checkpoint interval, which CI enforces via `bench smr`;
//   - the count of replicas at the Slots frontier, which is the run's stop
//     test.

// smrObserver tails one replica's log.
type smrObserver struct {
	rep     *smr.Replica
	wrapper *sim.Restart // non-nil for the victim
	next    int          // next absolute slot not yet observed
	gapped  bool         // a truncation or install outran observation
	revived bool         // the victim's revival was noticed (cursor reset)
	arrived bool         // the replica is up with its frontier at Slots or beyond
}

// current returns the live replica behind this observer: nil while the
// victim is down (the pre-crash instance is discarded state, not a replica
// to read), the fresh instance after revival.
func (o *smrObserver) current() *smr.Replica {
	if o.wrapper != nil {
		if o.wrapper.Down() {
			return nil
		}
		if rep, ok := o.wrapper.Inner().(*smr.Replica); ok {
			o.rep = rep
		}
	}
	return o.rep
}

// entryKey is a log position: batching commits several entries per slot, so
// positions are (slot, index within the slot's batch).
type entryKey struct{ slot, index int }

// logAuditor audits the logs of one run's live replicas.
type logAuditor struct {
	slots     int            // the frontier the reference digests are captured at
	observers []*smrObserver // one per live replica; [0] is the reference
	// machines holds each replica's live state machine (replaced when the
	// victim is rebuilt); the reference chain re-seeds from machines[0].
	machines []*smr.KVMachine

	canonical  map[entryKey]smr.Entry // first-observed committed entry per position
	mismatches int
	arrived    int // observers whose replica is up with its frontier at Slots or beyond

	refDigest         uint64
	refMachine        *smr.KVMachine
	refCount          int // slots fully folded into the reference chain
	digestAt, stateAt uint64

	victimCommitted int // entries the revived victim committed itself

	// tail is the buffer every drain reads a replica's new entries into;
	// it is cleared after each drain so no entry keeps a body alive.
	tail []smr.Entry
}

func newLogAuditor(slots, replicas int) *logAuditor {
	return &logAuditor{
		slots:      slots,
		observers:  make([]*smrObserver, replicas),
		machines:   make([]*smr.KVMachine, replicas),
		canonical:  make(map[entryKey]smr.Entry, slots),
		refDigest:  ckpt.InitialLogDigest,
		refMachine: smr.NewKVMachine(),
	}
}

// reseed restarts the reference chain at a certified cut the reference
// replica resumed from without committing the slots below it — a state
// transfer it installed, or the durable record it booted from. digest is the
// full-history log digest at the cut and machines[0] was just restored to
// the certified state, so the chain continues as if it had folded every
// slot; the stream is voided (false) only if the cut cannot be adopted.
func (a *logAuditor) reseed(digest uint64, cut int) bool {
	if cut > a.slots || a.refMachine.Restore(a.machines[0].Snapshot()) != nil {
		return false
	}
	a.refDigest, a.refCount = digest, cut
	if cut == a.slots {
		a.capture()
	}
	return true
}

// capture records the reference digests; called exactly when the fold
// frontier lands on the Slots boundary.
func (a *logAuditor) capture() {
	a.digestAt = a.refDigest
	a.stateAt = ckpt.Digest(a.refMachine.Snapshot())
}

// member is what every live replica of an SMR run is: a node of the
// zero-allocation delivery loop.
type member interface {
	sim.Node
	sim.Recycler
}

// audited is the node the network runs for live replica i: the member
// itself, drained after every delivery to it. Observing from outside the
// delivery is what keeps the entries a restart victim commits inside its
// crashing delivery unobserved — by the time Deliver returns, the victim is
// down.
type audited struct {
	member
	audit *logAuditor
	i     int
}

func (n *audited) Deliver(m types.Message) []types.Message {
	out := n.member.Deliver(m)
	n.audit.drain(n.i)
	return out
}

// drainAll drains every replica in index order: once before the run, so the
// frontier count starts from the booted replicas, and once after it.
func (a *logAuditor) drainAll() {
	for i := range a.observers {
		a.drain(i)
	}
}

// drain tails replica i's new entries into the canonical map and the
// reference digest chain. Called after every delivery to the replica and
// from OnCertified (pre-truncation), so no entry is released unobserved. A
// slot's whole batch commits within one delivery, so ents always holds
// complete slots — which is what lets refCount advance per slot below.
func (a *logAuditor) drain(i int) {
	o := a.observers[i]
	rep := o.current()
	if arrived := rep != nil && rep.Slot() >= a.slots; arrived != o.arrived {
		o.arrived = arrived
		if arrived {
			a.arrived++
		} else {
			a.arrived-- // the victim went down
		}
	}
	if rep == nil {
		return // victim is down
	}
	if o.wrapper != nil && o.wrapper.Restarted() && !o.revived {
		// Fresh victim: restart the tail from slot 0 so everything it
		// commits — including slots its pre-crash self already committed —
		// is checked against the canonical log.
		o.revived = true
		o.next = 0
	}
	if rep.Slot() == o.next {
		return // nothing committed, nothing installed
	}
	a.tail = rep.AppendLogSince(a.tail[:0], o.next)
	a.observe(i, rep, a.tail)
	clear(a.tail)
}

// observe is drain's second half: ents are replica i's entries from its
// observer's cursor on, possibly none (the replica installed a cut).
func (a *logAuditor) observe(i int, rep *smr.Replica, ents []smr.Entry) {
	o := a.observers[i]
	if len(ents) == 0 {
		if b := rep.Base(); b > o.next {
			// The replica jumped past slots this observer never saw (state
			// transfer installed a cut). Expected for the victim; the
			// reference replica's chain re-seeds from the installed
			// certificate, and is voided only if no certificate explains the
			// jump.
			if i == 0 && !o.gapped && a.refCount < a.slots {
				cert, ok := rep.LatestCert()
				if !ok || cert.Slot != b || !a.reseed(cert.LogDigest, b) {
					o.gapped = true
				}
			}
			o.next = b
		}
		return
	}
	if ents[0].Slot > o.next && i == 0 {
		o.gapped = true
	}
	for idx, e := range ents {
		k := entryKey{e.Slot, e.Index}
		if have, ok := a.canonical[k]; ok {
			if have != e {
				a.mismatches++
			}
		} else {
			a.canonical[k] = e
		}
		if i == 0 && !o.gapped && e.Slot >= a.refCount {
			a.refDigest = ckpt.FoldEntry(a.refDigest, e.Slot, e.Proposer, e.Command)
			if e.Command != "" && e.Command != smr.Noop {
				a.refMachine.Apply(e.Command)
			}
			// The slot is fully folded once its last entry is (the next
			// entry belongs to a later slot, or the tail ends — slots are
			// complete). Capture the reference digests exactly when the fold
			// frontier lands on the Slots boundary, before any entry of a
			// later slot folds in.
			if idx == len(ents)-1 || ents[idx+1].Slot != e.Slot {
				a.refCount = e.Slot + 1
				if a.refCount == a.slots {
					a.capture()
				}
			}
		}
		if o.wrapper != nil && o.wrapper.Restarted() {
			a.victimCommitted++
		}
	}
	o.next = ents[len(ents)-1].Slot + 1
}

// report writes the audit's verdicts into the result: the reference
// digests, the agreement check, and — from the canonical entries inside the
// measured frontier — the throughput numerator and the exactly-once check
// (a non-noop command at two log positions is a consumed command
// re-proposed, the install-jump bug class, or a duplicate submission).
func (a *logAuditor) report(res *SMRResult) {
	res.LogDigest, res.StateDigest = a.digestAt, a.stateAt
	res.FullStream = !a.observers[0].gapped && a.refCount >= a.slots
	res.Mismatches = a.mismatches
	res.VictimCommitted = a.victimCommitted
	seenCmd := make(map[string]bool, len(a.canonical))
	// order-free: counts; a command's repeats count the same in any order
	for k, e := range a.canonical {
		if k.slot >= a.slots {
			continue
		}
		res.Entries++
		if e.Command == "" || e.Command == smr.Noop {
			continue
		}
		if seenCmd[e.Command] {
			res.DuplicateCommands++
		}
		seenCmd[e.Command] = true
	}
}

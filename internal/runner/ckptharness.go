package runner

import "repro/internal/adversary"

// This file is the checkpoint-adversary scenario registry: the robustness
// battery of the checkpoint and state-transfer subsystem, kept separate from
// Scenarios() (whose entries expand to consensus or RBC sweeps; these are
// SMR workload configs). Each scenario composes one checkpoint-plane
// attacker (adversary.CkptByzantine) with a hostile delivery schedule and,
// for the transfer-facing attacks, the restart-catchup victim — the replica
// the attack is actually aimed at. The acceptance bar is uniform: every
// property the attack-free run holds (agreement, full reference stream, no
// suffix divergence) plus digest equality against the attack-free control
// run at the same (config, seed) — the benign workload commits the same
// entries whatever the checkpoint plane suffers, so the attack run's digests
// must reproduce the control's bitwise.

// CkptScenario is one checkpoint-adversary scenario: an attack, the
// schedule it composes with, and whether the restart-catchup victim is in
// play.
type CkptScenario struct {
	Name   string
	Attack adversary.CkptAttack
	Sched  SchedulerKind
	// Restart adds the kill/revive victim (the replica state transfer must
	// rescue through the attack).
	Restart bool
	// MaxPendingCuts, when nonzero, shrinks the tracker's pending-cut cap —
	// the vote-spam scenarios assert the table never exceeds it.
	MaxPendingCuts int
}

// CkptScenarios returns the checkpoint-adversary battery. Every entry must
// hold all properties at every seed and scale (the quick battery and the
// frontier battery run the same list).
func CkptScenarios() []CkptScenario {
	return []CkptScenario{
		// A cut-equivocating voter sends every receiver a different,
		// correctly self-signed digest pair; per-digest match counting keeps
		// its votes out of every quorum, and the restarted victim still
		// catches up.
		{Name: "cut-equivocate/restart", Attack: adversary.CkptCutEquivocate, Sched: SchedUniform, Restart: true},
		// A MAC forger emits hostile vote vectors (wrong length and garbage
		// entries) plus forged certificates claiming honest voters over
		// digest-consistent poisoned snapshots, under adversarial
		// reordering; per-receiver MAC verification rejects all of it.
		{Name: "mac-forge/reorder", Attack: adversary.CkptMACForge, Sched: SchedReorder, Restart: true},
		// A vote spammer floods self-signed votes for far-future cuts while
		// one honest replica straggles behind the window; the shrunken
		// pending-cut cap must bound the vote table and the straggler must
		// still certify and prune.
		{Name: "future-spam/straggler", Attack: adversary.CkptFutureSpam, Sched: SchedStraggler, MaxPendingCuts: 16},
		// A stale responder answers the victim's transfer requests with the
		// previous certificate; the victim must detect staleness and fall
		// over to the next peer.
		{Name: "stale-responder/restart", Attack: adversary.CkptStaleResponder, Sched: SchedUniform, Restart: true},
		// A corrupt responder serves the latest certificate with a mangled
		// snapshot across a healing partition; the digest check rejects it
		// and the fallback loop completes the catch-up.
		{Name: "corrupt-responder/split-heal", Attack: adversary.CkptCorruptResponder, Sched: SchedSplitHeal, Restart: true},
	}
}

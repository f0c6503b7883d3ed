// Package smr builds state machine replication — a totally ordered,
// Byzantine-fault-tolerant command log — from the paper's primitives, by this
// reduction:
//
//	slot s: the rotation's proposer disseminates its next command with
//	        Bracha reliable broadcast (so the payload cannot equivocate);
//	        every replica, once it holds the candidate, runs binary
//	        consensus instance s on committing it; a 1-decision appends the
//	        candidate to the log and applies it to the deterministic state
//	        machine.
//
// Agreement of the log follows from RBC agreement (same payload) plus
// binary agreement (same commit decision) per slot, and induction over
// slots. Proposers with nothing to say propose an explicit no-op so the log
// always advances.
//
// Each replica runs these binary instances on one agreement engine, a
// core.Node with its broadcaster, validator and DECIDE gadget, built at the
// first slot that starts and re-armed (core.Node.Reset) for instance s+1 at
// every later slot and after a state-transfer install. A re-armed engine
// holds nothing of the slot before — no instance, record, pending message
// or vote — but keeps its tables and the unused rest of its blocks, so a
// slot costs the instances it handles, not an engine.
//
// Liveness requires every proposer in the rotation to be live: a purely
// asynchronous system cannot distinguish a crashed proposer from a slow one
// (that is FLP talking), so skipping dead proposers' slots needs either
// timeouts (partial synchrony) or the asynchronous-common-subset
// construction (internal/acs). Configure Rotation with the processes you
// expect to be live; crashed non-proposers are tolerated up to f as usual.
// Only peers take part: Deliver drops a message from outside Config.Peers
// before any part of the replica sees it, so a non-peer costs no state and
// draws no answer.
//
// # Planes
//
// A Replica is three planes, plain structs it holds by value, each in its
// own file and each the only owner of its fields:
//
//   - ordering (ordering.go): the rotation, the submit queue, the candidates
//     disseminated for each slot, the agreement engine and the slot counter
//     — what decides which candidate commits. It is the only file of the
//     package that imports internal/core.
//   - the log (log.go): the committed entries, their base and the chained
//     log digest.
//   - checkpointing (checkpoint.go): votes and certificates, the catch-up
//     frontier and transfer retries, and the durable store.
//
// Four calls cross between them, and only Replica's methods make them:
//
//   - commit (Replica.commit): ordering hands the log a decided slot; the
//     machine applies its entries, checkpointing checks them against a
//     restored suffix and, at a checkpoint interval, votes on the cut.
//   - the install jump (Replica.install): checkpointing moves ordering to a
//     transferred cut, where the skipped turns consume the queue through
//     proposalTake, and the log restarts empty at the cut.
//   - the cut (Replica.cut): a certified cut fires Config.OnCertified,
//     truncates the log and releases ordering's dissemination records below
//     it.
//   - the frontier (Deliver): ordering traffic names slots, which
//     checkpointing notes as a lag hint, and checkpointing reads ordering's
//     slot to decide whether the replica lags.
//
// # Batching and pipelined dissemination
//
// One slot of agreement costs the same ~7n³ deliveries whatever its body
// carries, so throughput scales with how much each instance decides. With
// Config.Batch > 1 a proposing turn drains up to Batch commands from the
// bounded submit queue (Submit returns an accepted-bool; see QueueLimit)
// into one canonical batch body (wire.EncodeBatch), and the decided slot
// unbatches into one log Entry per command — applied and digest-folded
// individually, atomically within the slot, so checkpoint cuts, state
// transfer, and the durable suffix detector all see the same entry stream
// they would unbatched. With Config.Depth > 1 a replica disseminates the
// candidates for its own turns up to Depth-1 slots past the agreement
// frontier, overlapping RBC with the current slot's agreement; agreement
// itself stays strictly sequential, so pipelining reduces end-to-end
// latency, never the per-slot delivery count or what commits. Both knobs
// default to the pre-batching behavior (Batch, Depth <= 1), bitwise.
//
// # Checkpointing and state transfer
//
// With Config.CheckpointEvery set, the replica layers the protocol-level
// checkpoint subsystem (internal/ckpt) over the log. Every CheckpointEvery
// slots it snapshots its Snapshotter machine, folds the log frontier into a
// Checkpoint{Slot, StateDigest, LogDigest}, and broadcasts a signed vote;
// 2f+1 matching votes certify the cut. A certified cut becomes the new log
// base: committed entries below it are truncated (the chained LogDigest
// still covers them), the dissemination instances and digest records of
// pre-cut slots are dropped outright, superseded snapshots and votes are
// released, and Config.OnCertified lets the embedding harness retire
// cluster-shared per-slot state (coin dealers). Steady-state memory is then
// O(window + interval) instead of O(slots committed).
//
// The catch-up path that makes the release safe: a replica observing
// traffic at least one checkpoint interval ahead of its own frontier — a
// restarted process whose in-flight messages are gone, or one lagging past
// the window — sends a targeted state-transfer request to one peer at a
// time, rotating deterministically. The peer answers with the latest
// certificate plus the snapshot at its cut (deduplicated per requester,
// cut, and retry nonce); the replica verifies the votes and the snapshot
// digest, installs the snapshot as its new base, and rejoins the live
// slots, committing onward through the ordinary protocol. Nothing
// uncertified is ever installed, and a response that comes back stale or
// unverifiable falls over to the next peer immediately (bounded per
// responder), so a Byzantine responder can delay one round-trip but never
// stall catch-up. With Config.Store set the latest certified checkpoint
// also persists to disk, which is what lets a whole-cluster power cycle
// recover with nobody left to transfer from.
package smr

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// dissemNS is the Tag.Seq namespace for candidate dissemination; binary
// consensus instances use Seq = slot+1 (1-based, slot numbering is 0-based).
const dissemNS = 1 << 20

// Noop is the explicit empty command a proposer submits when its queue is
// empty on its turn.
const Noop = "\x00noop"

// DefaultQueueLimit bounds the submit queue when Config.QueueLimit is zero.
// Submissions beyond the bound are rejected (Submit returns false) and
// counted, so a halted or saturated replica cannot silently retain every
// command a client ever offers.
const DefaultQueueLimit = 1 << 14

// StateMachine is the deterministic application a Replica drives. Apply is
// called exactly once per committed non-noop command, in log order, with
// identical sequences at every correct replica.
type StateMachine interface {
	Apply(cmd string) error
}

// Entry is one committed log position. A slot commits one entry without
// batching; with Config.Batch > 1 a decided batch body unbatches into one
// entry per bundled command, ordered by Index within the slot. Command is
// never a copy: it is the body this replica delivered for the slot, or for a
// batch a substring of it (wire.DecodeBatch), so the entries of one batch
// share one body, and the log, which truncates by slot, drops them together.
type Entry struct {
	Slot int
	// Index is the entry's position within its slot's batch (0 for the
	// first or only entry).
	Index    int
	Proposer types.ProcessID
	Command  string
}

// Config configures a Replica.
type Config struct {
	// Me is this process; Peers lists all processes including Me.
	Me    types.ProcessID
	Peers []types.ProcessID
	// Spec is the failure assumption.
	Spec quorum.Spec
	// NewCoin builds the coin for one slot's consensus instance. Required.
	NewCoin func(slot int) coin.Coin
	// Rotation lists the proposers, round-robin by slot. Every member must
	// be live for the log to advance. Defaults to Peers.
	Rotation []types.ProcessID
	// Machine receives committed commands. Required.
	Machine StateMachine
	// maxSlots stops the replica after that many commits (0 = unbounded):
	// a bound only this package's tests set, to end a cluster run.
	maxSlots int
	// Batch caps how many queued commands one proposing turn bundles into a
	// single dissemination body (0 or 1 = one raw command per slot: the
	// pre-batching behavior and wire format, bitwise). With Batch > 1 the
	// turn encodes up to Batch queued commands as one canonical batch body
	// (wire.EncodeBatch) and the decided slot unbatches into one log Entry
	// per command, so agreement cost is paid once per batch.
	Batch int
	// Depth is the dissemination pipeline depth in slots: this replica
	// disseminates its candidates for its own turns among the Depth slots
	// from the agreement frontier on (0 or 1 = only the current slot, the
	// pre-pipelining behavior).
	// Agreement stays strictly sequential — slot s+1's instance starts only
	// after slot s decides, because coin shares carry no instance tag to
	// route concurrent instances by — but with Depth > 1 the RBC for turns
	// in [slot, slot+Depth) runs while slot's agreement is still deciding,
	// hiding dissemination latency behind agreement.
	Depth int
	// QueueLimit bounds the submit queue (0 = DefaultQueueLimit, negative =
	// unbounded). Submit rejects and counts commands beyond the bound.
	QueueLimit int
	// Coded switches candidate dissemination — the plane carrying batch
	// bodies — to erasure-coded reliable broadcast (see internal/rbc). The
	// per-slot agreement instances stay uncoded (their bodies are one step
	// message each). The committed log is byte-identical either way; only
	// dissemination's wire format and bandwidth change.
	Coded bool
	// CheckpointEvery enables protocol-level checkpointing with the given
	// cut cadence in slots (0 = off). Requires Machine to implement
	// Snapshotter and a shared CheckpointSecret. See the package doc's
	// checkpointing section.
	CheckpointEvery int
	// CheckpointSecret is the master secret from which the checkpoint
	// subsystem derives its pairwise vote-authentication link keys
	// (trusted setup: each process is dealt only its own links). All
	// replicas of a deployment must share the same master; required when
	// CheckpointEvery > 0.
	CheckpointSecret []byte
	// MaxPendingCuts overrides the checkpoint tracker's pending-cut cap
	// (0 = ckpt.DefaultMaxPendingCuts): how many distinct uncertified cuts
	// may hold votes before deterministic largest-first eviction kicks in.
	MaxPendingCuts int
	// Store, when set, persists the latest certified checkpoint (certificate,
	// snapshot, committed log suffix) through atomic temp-file+rename writes,
	// and New restores from it: the replica verifies the stored certificate
	// exactly like a network transfer, installs the snapshot, and resumes at
	// the cut — which is what lets a whole-cluster power cycle recover with
	// no peer ahead to transfer from. A missing, torn, or corrupted record
	// falls back to an empty start and network state transfer. Requires
	// CheckpointEvery > 0.
	Store *ckpt.Store
	// OnCertified, when set, is called each time this replica's highest
	// certified cut advances, with the release floor (the certified cut
	// capped at the replica's own frontier). It fires before the pre-cut
	// log entries are truncated, so a harness tailing the log via LogSince
	// can drain them first; embedding harnesses also use it to retire
	// cluster-shared per-slot state such as coin.DealerSet entries below
	// the cut. Cuts installed by state transfer fire it too (with the
	// installed cut; the log was already empty).
	OnCertified func(cut int)
	// Telemetry, when set, receives checkpoint-plane phase marks
	// (vote→certify, request→install) and is forwarded to the
	// dissemination broadcaster and each slot's binary instance. Nil
	// disables all charging.
	Telemetry *sim.Telemetry
}

// Replica is one state-machine-replication participant. Deterministic
// state machine (sim.Node); not safe for concurrent use.
type Replica struct {
	cfg Config

	// The three planes (see the package doc); each holds its own state and
	// reads cfg through a pointer back to it.
	ord ordering
	log commitLog
	cp  checkpointing

	// The embedded recycled output buffer (see sim.OutBuffer). Together
	// with the append-style RBC path and the inner consensus node appending
	// its emissions straight into it (core.Node.AppendDeliver), a
	// steady-state SMR delivery allocates nothing; per-slot setup (the
	// engine's re-arm, the slot's coin) amortizes across the slot's
	// thousands of deliveries.
	sim.OutBuffer
}

// Config errors.
var (
	ErrNoCoinFactory = errors.New("smr: config requires NewCoin")
	ErrNoMachine     = errors.New("smr: config requires a state machine")
	ErrNoSnapshotter = errors.New("smr: checkpointing requires a Snapshotter machine")
	ErrNoCkptSecret  = errors.New("smr: checkpointing requires a cluster secret")
	ErrStoreNoCkpt   = errors.New("smr: a durable store requires checkpointing")
)

// New creates a replica. A replica with a durable store that holds a
// verified record resumes at its cut (see checkpointing.restore).
func New(cfg Config) (*Replica, error) {
	if cfg.NewCoin == nil {
		return nil, ErrNoCoinFactory
	}
	if cfg.Machine == nil {
		return nil, ErrNoMachine
	}
	if err := cfg.Spec.CheckPeers(cfg.Me, cfg.Peers); err != nil {
		return nil, err
	}
	if cfg.Store != nil && cfg.CheckpointEvery <= 0 {
		return nil, ErrStoreNoCkpt
	}
	if len(cfg.Rotation) == 0 {
		cfg.Rotation = cfg.Peers
	}
	cfg.Batch, cfg.Depth = max(cfg.Batch, 1), max(cfg.Depth, 1)
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = DefaultQueueLimit
	}
	newRBC := rbc.New
	if cfg.Coded {
		newRBC = rbc.NewCoded
	}
	r := &Replica{cfg: cfg, log: commitLog{digest: ckpt.InitialLogDigest}}
	r.ord = ordering{
		cfg:     &r.cfg,
		values:  newRBC(cfg.Me, cfg.Peers, cfg.Spec),
		cands:   make(map[int]string),
		pending: make(map[int][]types.Message),
	}
	r.ord.values.SetTelemetry(cfg.Telemetry)
	r.cp.cfg = &r.cfg
	if cfg.CheckpointEvery > 0 {
		snap, ok := cfg.Machine.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrNoSnapshotter, cfg.Machine)
		}
		if len(cfg.CheckpointSecret) == 0 {
			return nil, ErrNoCkptSecret
		}
		tracker, err := ckpt.NewTracker(cfg.Me, cfg.Spec,
			ckpt.NewAuthority(cfg.CheckpointSecret, cfg.Me, cfg.Peers), cfg.CheckpointEvery)
		if err != nil {
			return nil, err
		}
		if cfg.MaxPendingCuts > 0 {
			tracker.SetMaxPendingCuts(cfg.MaxPendingCuts)
		}
		r.cp.snap, r.cp.tracker, r.cp.reqBad = snap, tracker, make([]bool, cfg.Spec.N())
		r.cp.others = slices.DeleteFunc(slices.Clone(cfg.Peers), func(p types.ProcessID) bool { return p == cfg.Me })
		if cert, ok := r.cp.restore(); ok {
			r.ord.slot = cert.Slot
			r.log.reset(cert.Slot, cert.LogDigest)
		}
	}
	return r, nil
}

var (
	_ sim.Node     = (*Replica)(nil)
	_ sim.Recycler = (*Replica)(nil)
)

// ID implements sim.Node.
func (r *Replica) ID() types.ProcessID { return r.cfg.Me }

// Done implements sim.Node: true once maxSlots commits happened.
func (r *Replica) Done() bool { return r.ord.done() }

// Start implements sim.Node. A replica restored from its durable store also
// announces its certified cut (a bare certificate, no snapshot): after a
// whole-cluster power cycle the replicas may boot at different persisted
// cuts, and the announcement is what lets the ones behind discover the gap
// and catch up through ordinary state transfer.
func (r *Replica) Start() []types.Message {
	out := r.ord.propose(r.Take())
	if r.cp.restoredCut > 0 {
		if p, ok := r.cp.tracker.CertPayload(false); ok {
			out = types.AppendBroadcast(out, r.cfg.Me, r.cp.others, p)
		}
	}
	return out
}

// Submit enqueues a command for this replica's future proposing turns and
// reports whether it was accepted. It never sends anything itself:
// dissemination happens when a turn begins (at Start or on slot advance),
// so Submit may be called before the replica is started — turns that have
// already begun proposed what they had (possibly a noop) and later commands
// wait for the next turn.
//
// A command is rejected (false, counted in Dropped) when the replica is
// Done — it will never propose again, so accepting would leak the command
// forever — when the queue is at its bound (Config.QueueLimit), or, with
// batching on, when the command alone exceeds the batch wire bounds and so
// could never be encoded.
func (r *Replica) Submit(cmd string) bool {
	o := &r.ord
	if o.done() || r.cfg.Batch > 1 && len(cmd) > wire.MaxBatchBytes ||
		r.cfg.QueueLimit > 0 && len(o.queue) >= r.cfg.QueueLimit {
		o.dropped++
		return false
	}
	o.queue = append(o.queue, cmd)
	return true
}

// Deliver implements sim.Node.
func (r *Replica) Deliver(m types.Message) []types.Message {
	if _, peer := r.cfg.Spec.Index(m.From); !peer || r.Done() {
		// Only peers take part: what others send is dropped here, before
		// any plane echoes, buffers or answers it.
		return nil
	}
	out := r.Take()
	switch inst, plane := types.Route(m.Payload, dissemNS); plane {
	case types.PlaneValues:
		r.cp.noteFrontier(inst)
		out = r.ord.onValues(out, m)
	case types.PlaneBinary:
		r.cp.noteFrontier(inst - 1) // binary instance s+1 serves slot s
		out = r.ord.onBinary(out, m, inst)
	case types.PlaneCoin:
		if r.ord.armed {
			out = r.ord.bin.AppendDeliver(out, m)
		}
	case types.PlaneCkpt:
		next, cert, snapshot, certified := r.cp.onCkpt(out, m, r.ord.slot)
		if out = next; certified && snapshot != "" {
			out = r.install(out, cert, snapshot)
		} else if certified {
			r.cut(cert)
		}
	}
	out = r.cp.maybeRequest(out, r.ord.slot)
	for {
		next, v, body, decided := r.ord.decide(out)
		if !decided {
			return next
		}
		out = r.commit(next, v, body)
	}
}

// commit is the commit seam: ordering hands the log the slot it decided.
// The log appends its entries, the machine applies them (when the slot
// decided 1; never the explicit noop), the checkpoint plane checks them
// against a restored suffix, ordering moves to the next slot, and at a
// checkpoint interval the checkpoint plane votes on the cut.
func (r *Replica) commit(out []types.Message, v types.Value, body string) []types.Message {
	slot := r.ord.slot
	for _, e := range r.log.commit(slot, r.ord.proposer(slot), v, body, r.cfg.Batch > 1) {
		if v == types.One && e.Command != Noop {
			// A rejected command still commits; its error is dropped on
			// purpose. Apply is deterministic, so every replica rejects the
			// same command and leaves its state alike — agreement holds
			// (TestRejectedCommandCommitsEverywhere).
			_ = r.cfg.Machine.Apply(e.Command)
		}
		r.cp.recommitted(e)
	}
	r.ord.next()
	if r.cp.tracker != nil && r.ord.slot%r.cfg.CheckpointEvery == 0 {
		next, cert, certified := r.cp.vote(out, r.ord.slot, r.log.digest, r.log.entries)
		if out = next; certified {
			r.cut(cert)
		}
	}
	return r.ord.propose(out)
}

// install is the install-jump seam: it applies a verified state transfer.
// The snapshot becomes the machine's state and the checkpoint plane adopts
// the certificate, ordering jumps to the cut (the skipped turns consume the
// queue through proposalTake), the log restarts empty at the cut with the
// certified digest, and the replica rejoins the live slots.
func (r *Replica) install(out []types.Message, cert ckpt.Certificate, snapshot string) []types.Message {
	if !r.cp.install(cert, snapshot) {
		return out
	}
	r.ord.jump(cert.Slot)
	r.log.reset(cert.Slot, cert.LogDigest)
	r.cp.persist(r.log.entries)
	if r.cfg.OnCertified != nil {
		r.cfg.OnCertified(cert.Slot)
	}
	// It may be our turn at the cut, and buffered candidates/decides for
	// the slots above it resume in decide.
	return r.ord.propose(out)
}

// cut is the cut seam: it releases everything a freshly certified cut
// settles. The release floor is the cut capped at ordering's slot: a cut
// certified ahead of this replica's progress (the cluster outran us) must
// not touch the live slots we are still working through.
func (r *Replica) cut(cert ckpt.Certificate) {
	r.cp.certified(cert.Slot)
	floor := min(cert.Slot, r.ord.slot)
	// The hook fires before truncation, so an embedding harness that tails
	// the log (LogSince) can drain the entries the cut is about to release.
	if r.cfg.OnCertified != nil {
		r.cfg.OnCertified(floor)
	}
	r.log.truncate(floor)
	r.ord.values.DropSeqBelow(dissemNS + floor)
	r.cp.persist(r.log.entries)
}

// Dropped returns how many submitted commands were rejected by the queue
// bound, the batch wire bounds, or submission after Done.
func (r *Replica) Dropped() int { return r.ord.dropped }

// LogLen returns how many committed entries the replica retains, without
// copying anything — the O(1) "did anything commit since I looked" probe
// for per-delivery polling.
func (r *Replica) LogLen() int { return len(r.log.entries) }

// LogSince returns a copy of the retained entries with Slot >= slot. A
// poller that tracks the next slot it has not seen pays O(new entries) per
// call instead of copying the whole retained log. Entries below the retention
// base (truncated at a certified cut) are gone; LogSince silently starts at
// the base, which Base() exposes so callers can detect the gap.
func (r *Replica) LogSince(slot int) []Entry { return r.AppendLogSince(nil, slot) }

// AppendLogSince is LogSince appending the entries to dst, for a poller that
// reads every tail into one reused buffer; dst is returned unchanged when no
// retained entry has Slot >= slot.
func (r *Replica) AppendLogSince(dst []Entry, slot int) []Entry {
	return append(dst, r.log.entries[r.log.from(slot):]...)
}

// Base returns the first retained slot: 0 without checkpointing, the last
// installed or certified cut with it.
func (r *Replica) Base() int { return r.log.base }

// LogDigest returns the chained digest over the replica's complete
// committed history [0, Slot()) — including entries truncated at checkpoint
// cuts, whose contribution the certified cut pinned (see ckpt.FoldEntry).
func (r *Replica) LogDigest() uint64 { return r.log.digest }

// Slot returns the next undecided slot index.
func (r *Replica) Slot() int { return r.ord.slot }

// CertifiedCut returns the latest certified checkpoint cut this replica
// knows (0 if none or checkpointing is off).
func (r *Replica) CertifiedCut() int {
	cert, _ := r.LatestCert()
	return cert.Slot
}

// Transfers returns how many state transfers this replica has installed.
func (r *Replica) Transfers() int { return r.cp.transfers }

// TransferRetries returns how many reactive re-requests this replica sent
// after a stale or unverifiable transfer response.
func (r *Replica) TransferRetries() int { return r.cp.retries }

// StaleResponses counts full transfer responses (certificate plus snapshot)
// that arrived at or below this replica's own frontier — what a
// stale-certificate responder serves.
func (r *Replica) StaleResponses() int { return r.cp.staleResponses }

// UnverifiableResponses counts certificate payloads that failed
// verification: forged votes, sub-quorum certificates, or a snapshot that
// does not digest to the certified state.
func (r *Replica) UnverifiableResponses() int { return r.cp.badResponses }

// StoreErrors counts durable-store failures survived: rejected or
// unverifiable records at boot and failed saves (each falls back to the
// network path).
func (r *Replica) StoreErrors() int { return r.cp.storeErrors }

// RestoredCut returns the cut installed from the durable store at boot
// (0 = booted empty).
func (r *Replica) RestoredCut() int { return r.cp.restoredCut }

// SuffixDivergence counts re-committed entries that contradicted the
// durable record's log suffix — must stay 0, by agreement plus the
// certificate pinning the prefix.
func (r *Replica) SuffixDivergence() int { return r.cp.suffixDivergence }

// PendingCuts returns how many uncertified cuts the checkpoint tracker
// holds votes for (0 with checkpointing off; bounded by the pending-cut
// cap however much a Byzantine voter spams).
func (r *Replica) PendingCuts() int {
	if r.cp.tracker == nil {
		return 0
	}
	return r.cp.tracker.PendingCuts()
}

// LatestCert returns this replica's highest certified checkpoint
// certificate (ok = false when none or checkpointing is off).
func (r *Replica) LatestCert() (ckpt.Certificate, bool) {
	if r.cp.tracker == nil {
		return ckpt.Certificate{}, false
	}
	return r.cp.tracker.Latest()
}

// TransferPayload builds the wire form of this replica's latest certificate
// — with the retained snapshot at the cut when withSnapshot is set — or ok
// = false when it holds no certificate (or no snapshot for it). Harnesses
// and fault injectors use it; the replica itself serves transfers through
// the request path.
func (r *Replica) TransferPayload(withSnapshot bool) (*types.CkptCertPayload, bool) {
	if r.cp.tracker == nil {
		return nil, false
	}
	return r.cp.tracker.CertPayload(withSnapshot)
}

// StateDigest returns the digest of the machine's current snapshot (ok =
// false when the machine is not a Snapshotter).
func (r *Replica) StateDigest() (uint64, bool) {
	s, ok := r.cfg.Machine.(Snapshotter)
	if !ok {
		return 0, false
	}
	return ckpt.Digest(s.Snapshot()), true
}

// RBCDigestBytes returns the bytes the dissemination layer retains in
// compact delivered records — the per-slot residue checkpointing
// retires (see rbc.Broadcaster.DigestBytes).
func (r *Replica) RBCDigestBytes() int { return r.ord.values.DigestBytes() }

// RBCCompacted returns how many dissemination instances have been released
// to compact delivered records.
func (r *Replica) RBCCompacted() int { return r.ord.values.Compacted() }

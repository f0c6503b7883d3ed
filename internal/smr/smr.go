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
	"maps"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/coin"
	"repro/internal/core"
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
	// Depth is the dissemination pipeline depth: how many of this replica's
	// upcoming proposing turns disseminate ahead of the agreement frontier
	// (0 or 1 = only the current slot, the pre-pipelining behavior).
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
	cfg  Config
	spec quorum.Spec

	values *rbc.Broadcaster

	slot int
	// bin is the replica's agreement engine, built at the first slot that
	// starts and re-armed (core.Node.Reset) at every later one; armed
	// reports whether it is running the current slot's instance. pending
	// buffers binary traffic for slots not yet started, and spare is the
	// emptied buffer of the last slot that started, handed to the next slot
	// that buffers traffic.
	bin     *core.Node
	armed   bool
	cands   map[int]string
	pending map[int][]types.Message
	spare   []types.Message
	queue   []string
	dropped int          // submissions rejected by the queue bound or after Done
	waiting map[int]bool // slots whose proposal we already disseminated

	// log holds the committed entries from base upward; entries below base
	// were truncated at a certified checkpoint cut and are summarized by
	// logDigest, the chained digest over the complete history [0, slot).
	log       []Entry
	base      int
	logDigest uint64

	// Checkpointing state (nil/zero with CheckpointEvery == 0).
	tracker      *ckpt.Tracker
	snap         Snapshotter
	others       []types.ProcessID // peers excluding this replica (vote fan-out)
	frontier     int               // highest slot named by live traffic
	sinceRequest int               // deliveries until the next transfer request may fire
	transfers    int               // state transfers installed

	// Telemetry phase-mark start times (zero-valued without a sink).
	voteAt map[int]sim.Time // cut slot → time this replica's own vote was cast
	reqAt  sim.Time         // time the current transfer-request epoch opened

	// Transfer retry/fallback state: requests are targeted (one peer at a
	// time, rotating deterministically by nonce), and a response that comes
	// back stale or unverifiable immediately re-requests from the next peer
	// — bounded per catch-up epoch by the per-responder dedup in reqBad.
	reqNonce       int    // strictly increasing request counter (the wire nonce)
	reqBad         []bool // by peer index: responders that answered badly this epoch
	retries        int    // reactive re-requests sent after a bad response
	staleResponses int    // full responses at or below our own frontier
	badResponses   int    // responses that failed certificate/snapshot verification

	// Durable-store state (nil/zero without Config.Store).
	store            *ckpt.Store
	storeErrors      int                         // failed saves, corrupt or unverifiable loads
	restoredCut      int                         // cut installed from disk at boot (0 = none)
	restoreSuffix    map[suffixKey]ckpt.LogEntry // persisted suffix entries awaiting re-commit
	suffixDivergence int                         // re-committed entries that contradicted the suffix

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

// New creates a replica.
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
	if len(cfg.Rotation) == 0 {
		cfg.Rotation = cfg.Peers
	}
	newRBC := rbc.New
	if cfg.Coded {
		newRBC = rbc.NewCoded
	}
	r := &Replica{
		cfg:       cfg,
		spec:      cfg.Spec,
		values:    newRBC(cfg.Me, cfg.Peers, cfg.Spec),
		cands:     make(map[int]string),
		pending:   make(map[int][]types.Message),
		waiting:   make(map[int]bool),
		logDigest: ckpt.InitialLogDigest,
	}
	r.values.SetTelemetry(cfg.Telemetry)
	if cfg.Store != nil && cfg.CheckpointEvery <= 0 {
		return nil, ErrStoreNoCkpt
	}
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
		r.snap = snap
		r.tracker = tracker
		r.reqBad = make([]bool, cfg.Spec.N())
		for _, p := range cfg.Peers {
			if p != cfg.Me {
				r.others = append(r.others, p)
			}
		}
		r.store = cfg.Store
		r.restoreFromStore()
	}
	return r, nil
}

// restoreFromStore boots the replica from its durable record, if one exists
// and survives the same verification gate as a network state transfer:
// checksum and strict decode in the store, then the certificate's MAC
// quorum and the snapshot digest here. On success the replica resumes *at
// the cut* — slot, base, log digest, and machine state all jump there — and
// the persisted log suffix becomes a cross-restart divergence detector:
// the suffix slots re-commit through ordinary consensus, and any
// re-committed entry that contradicts the persisted one is counted in
// suffixDivergence. Every failure (no record, torn file, corruption,
// unverifiable certificate, unrestorable snapshot) degrades to an empty
// start and network state transfer.
func (r *Replica) restoreFromStore() {
	if r.store == nil {
		return
	}
	rec, err := r.store.Load()
	if err != nil {
		if !errors.Is(err, ckpt.ErrNoRecord) {
			r.storeErrors++
		}
		return
	}
	cert, ok := r.tracker.VerifyCertPayload(&rec.Cert)
	if !ok || cert.Slot <= 0 {
		r.storeErrors++
		return
	}
	if err := r.snap.Restore(rec.Cert.Snapshot); err != nil {
		r.storeErrors++
		return
	}
	r.slot = cert.Slot
	r.base = cert.Slot
	r.logDigest = cert.LogDigest
	r.frontier = cert.Slot
	r.restoredCut = cert.Slot
	r.tracker.Adopt(cert, rec.Cert.Snapshot)
	if len(rec.Suffix) > 0 {
		r.restoreSuffix = make(map[suffixKey]ckpt.LogEntry, len(rec.Suffix))
		for _, e := range rec.Suffix {
			if e.Slot >= cert.Slot {
				r.restoreSuffix[suffixKey{e.Slot, e.Index}] = e
			}
		}
	}
}

// suffixKey addresses one persisted suffix entry: batched proposals commit
// several entries per slot, so slot alone does not identify an entry.
type suffixKey struct{ slot, index int }

var (
	_ sim.Node     = (*Replica)(nil)
	_ sim.Recycler = (*Replica)(nil)
)

// ID implements sim.Node.
func (r *Replica) ID() types.ProcessID { return r.cfg.Me }

// Done implements sim.Node: true once maxSlots commits happened.
func (r *Replica) Done() bool {
	return r.cfg.maxSlots > 0 && r.slot >= r.cfg.maxSlots
}

// Start implements sim.Node. A replica restored from its durable store also
// announces its certified cut (a bare certificate, no snapshot): after a
// whole-cluster power cycle the replicas may boot at different persisted
// cuts, and the announcement is what lets the ones behind discover the gap
// and catch up through ordinary state transfer.
func (r *Replica) Start() []types.Message {
	out := r.propose(r.Take())
	if r.restoredCut > 0 {
		if p, ok := r.tracker.CertPayload(false); ok {
			out = types.AppendBroadcast(out, r.cfg.Me, r.others, p)
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
	if r.Done() {
		r.dropped++
		return false
	}
	if r.batchSize() > 1 && len(cmd) > wire.MaxBatchBytes {
		r.dropped++
		return false
	}
	if limit := r.queueLimit(); limit > 0 && len(r.queue) >= limit {
		r.dropped++
		return false
	}
	r.queue = append(r.queue, cmd)
	return true
}

// queueLimit resolves Config.QueueLimit: 0 means DefaultQueueLimit,
// negative means unbounded (returned as 0).
func (r *Replica) queueLimit() int {
	switch {
	case r.cfg.QueueLimit > 0:
		return r.cfg.QueueLimit
	case r.cfg.QueueLimit < 0:
		return 0
	default:
		return DefaultQueueLimit
	}
}

// Dropped returns how many submitted commands were rejected by the queue
// bound, the batch wire bounds, or submission after Done.
func (r *Replica) Dropped() int { return r.dropped }

// LogLen returns how many committed entries the replica retains, without
// copying anything — the O(1) "did anything commit since I looked" probe
// for per-delivery polling.
func (r *Replica) LogLen() int { return len(r.log) }

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
	// Entries are ordered by slot but a slot may hold a whole batch, so the
	// first retained entry of a slot is found by search, not arithmetic.
	idx := sort.Search(len(r.log), func(i int) bool { return r.log[i].Slot >= slot })
	return append(dst, r.log[idx:]...)
}

// Base returns the first retained slot: 0 without checkpointing, the last
// installed or certified cut with it.
func (r *Replica) Base() int { return r.base }

// LogDigest returns the chained digest over the replica's complete
// committed history [0, Slot()) — including entries truncated at checkpoint
// cuts, whose contribution the certified cut pinned (see ckpt.FoldEntry).
func (r *Replica) LogDigest() uint64 { return r.logDigest }

// Slot returns the next undecided slot index.
func (r *Replica) Slot() int { return r.slot }

// CertifiedCut returns the latest certified checkpoint cut this replica
// knows (0 if none or checkpointing is off).
func (r *Replica) CertifiedCut() int {
	if r.tracker == nil {
		return 0
	}
	cert, ok := r.tracker.Latest()
	if !ok {
		return 0
	}
	return cert.Slot
}

// Transfers returns how many state transfers this replica has installed.
func (r *Replica) Transfers() int { return r.transfers }

// TransferRetries returns how many reactive re-requests this replica sent
// after a stale or unverifiable transfer response.
func (r *Replica) TransferRetries() int { return r.retries }

// StaleResponses counts full transfer responses (certificate plus snapshot)
// that arrived at or below this replica's own frontier — what a
// stale-certificate responder serves.
func (r *Replica) StaleResponses() int { return r.staleResponses }

// UnverifiableResponses counts certificate payloads that failed
// verification: forged votes, sub-quorum certificates, or a snapshot that
// does not digest to the certified state.
func (r *Replica) UnverifiableResponses() int { return r.badResponses }

// StoreErrors counts durable-store failures survived: rejected or
// unverifiable records at boot and failed saves (each falls back to the
// network path).
func (r *Replica) StoreErrors() int { return r.storeErrors }

// RestoredCut returns the cut installed from the durable store at boot
// (0 = booted empty).
func (r *Replica) RestoredCut() int { return r.restoredCut }

// SuffixDivergence counts re-committed entries that contradicted the
// durable record's log suffix — must stay 0, by agreement plus the
// certificate pinning the prefix.
func (r *Replica) SuffixDivergence() int { return r.suffixDivergence }

// PendingCuts returns how many uncertified cuts the checkpoint tracker
// holds votes for (0 with checkpointing off; bounded by the pending-cut
// cap however much a Byzantine voter spams).
func (r *Replica) PendingCuts() int {
	if r.tracker == nil {
		return 0
	}
	return r.tracker.PendingCuts()
}

// LatestCert returns this replica's highest certified checkpoint
// certificate (ok = false when none or checkpointing is off).
func (r *Replica) LatestCert() (ckpt.Certificate, bool) {
	if r.tracker == nil {
		return ckpt.Certificate{}, false
	}
	return r.tracker.Latest()
}

// TransferPayload builds the wire form of this replica's latest certificate
// — with the retained snapshot at the cut when withSnapshot is set — or ok
// = false when it holds no certificate (or no snapshot for it). Harnesses
// and fault injectors use it; the replica itself serves transfers through
// the request path.
func (r *Replica) TransferPayload(withSnapshot bool) (*types.CkptCertPayload, bool) {
	if r.tracker == nil {
		return nil, false
	}
	return r.tracker.CertPayload(withSnapshot)
}

// StateDigest returns the digest of the machine's current snapshot (ok =
// false when the machine is not a Snapshotter).
func (r *Replica) StateDigest() (uint64, bool) {
	if r.snap == nil {
		if s, ok := r.cfg.Machine.(Snapshotter); ok {
			return ckpt.Digest(s.Snapshot()), true
		}
		return 0, false
	}
	return ckpt.Digest(r.snap.Snapshot()), true
}

// RBCDigestBytes returns the bytes the dissemination layer retains in
// compact delivered records — the per-slot residue checkpointing
// retires (see rbc.Broadcaster.DigestBytes).
func (r *Replica) RBCDigestBytes() int { return r.values.DigestBytes() }

// RBCLiveInstances and RBCCompacted expose the dissemination layer's
// pruning state: full-fidelity instances retained vs slots released to
// compact delivered records (diagnostics for the pruning tests).
func (r *Replica) RBCLiveInstances() int { return r.values.Instances() }

// RBCCompacted returns how many dissemination instances have been released
// to compact delivered records.
func (r *Replica) RBCCompacted() int { return r.values.Compacted() }

// proposer returns the proposer of a slot.
func (r *Replica) proposer(slot int) types.ProcessID {
	return r.cfg.Rotation[slot%len(r.cfg.Rotation)]
}

// batchSize resolves Config.Batch (0 or 1 = unbatched).
func (r *Replica) batchSize() int {
	if r.cfg.Batch > 1 {
		return r.cfg.Batch
	}
	return 1
}

// depth resolves Config.Depth (0 or 1 = disseminate only the current slot).
func (r *Replica) depth() int {
	if r.cfg.Depth > 1 {
		return r.cfg.Depth
	}
	return 1
}

// propose disseminates this replica's candidates for its not-yet-proposed
// turns within the pipeline horizon, appending into out. At Depth 1 that is
// exactly the current slot; at Depth > 1 dissemination runs ahead of the
// agreement frontier — the RBC for a turn in [slot, slot+Depth) proceeds
// while the current slot's agreement is still deciding — and every replica
// buffers the early candidates (cands) until agreement reaches them.
func (r *Replica) propose(out []types.Message) []types.Message {
	if r.Done() {
		return out
	}
	horizon := r.slot + r.depth()
	if r.cfg.maxSlots > 0 && horizon > r.cfg.maxSlots {
		horizon = r.cfg.maxSlots
	}
	for s := r.slot; s < horizon; s++ {
		if r.proposer(s) != r.cfg.Me || r.waiting[s] {
			continue
		}
		body := r.takeProposal()
		r.waiting[s] = true
		out = r.values.AppendBroadcast(out, types.Tag{Seq: dissemNS + s}, body)
	}
	return out
}

// proposalTake returns how many queued commands the next proposing turn
// consumes: 0 on an empty queue (the turn proposes a noop), 1 unbatched,
// and with batching up to Batch commands further capped by the batch wire
// bounds — but always at least one, so a queue can never wedge. It is the
// single consumption policy: takeProposal consumes through it when a turn
// actually disseminates, and install mirrors it for the turns a state-
// transfer jump skips, keeping "what would this turn have taken" identical
// on both paths.
func (r *Replica) proposalTake() int {
	if len(r.queue) == 0 {
		return 0
	}
	b := r.batchSize()
	if b <= 1 {
		return 1
	}
	if b > len(r.queue) {
		b = len(r.queue)
	}
	if b > wire.MaxBatchCommands {
		b = wire.MaxBatchCommands
	}
	total := 0
	for i := 0; i < b; i++ {
		total += len(r.queue[i])
		if total > wire.MaxBatchBytes && i > 0 {
			return i
		}
	}
	return b
}

// takeProposal pops the next proposal body off the submit queue: with
// batching off, one raw command — wire-identical to the pre-batching
// format, which is what keeps Batch<=1 runs bitwise equal to the goldens —
// and with Batch > 1 a canonical batch body bundling up to Batch commands.
// An empty queue yields the explicit Noop either way.
func (r *Replica) takeProposal() string {
	k := r.proposalTake()
	if k == 0 {
		return Noop
	}
	if r.batchSize() <= 1 {
		cmd := r.queue[0]
		r.queue = r.queue[1:]
		return cmd
	}
	body, err := wire.EncodeBatch(r.queue[:k])
	if err != nil {
		// Unreachable: Submit bounds each command and proposalTake bounds
		// count and total, which is everything EncodeBatch checks.
		panic(fmt.Sprintf("smr: encoding %d-command batch: %v", k, err))
	}
	r.queue = r.queue[k:]
	return body
}

// Deliver implements sim.Node.
func (r *Replica) Deliver(m types.Message) []types.Message {
	if r.Done() {
		return nil
	}
	out := r.Take()
	switch inst, kind := classify(m); kind {
	case trafficValues:
		r.noteFrontier(inst)
		var deliveries []rbc.Delivery
		out, deliveries, _ = r.values.AppendHandlePayload(out, m.From, m.Payload)
		for _, d := range deliveries {
			slot := d.ID.Tag.Seq - dissemNS
			if slot < 0 || d.ID.Sender != r.proposer(slot) {
				continue // only the slot's proposer may fill it
			}
			if _, dup := r.cands[slot]; !dup {
				r.cands[slot] = d.Body
			}
		}
	case trafficBinary:
		r.noteFrontier(inst - 1)
		switch {
		case inst == r.slot+1 && r.armed:
			out = r.bin.AppendDeliver(out, m)
		case inst > r.slot && inst <= r.slot+1_000_000:
			buf, ok := r.pending[inst]
			if !ok {
				buf, r.spare = r.spare, nil
			}
			r.pending[inst] = append(buf, m)
		}
	case trafficCoin:
		if r.armed {
			out = r.bin.AppendDeliver(out, m)
		}
	case trafficCkpt:
		if r.tracker != nil {
			out = r.onCkpt(out, m)
		}
	}
	out = r.maybeRequest(out)
	return r.step(out)
}

// noteFrontier tracks the highest slot named by live traffic — the
// behind-detection input of the catch-up path. Slot numbers in
// dissemination and consensus traffic are unauthenticated claims (and a
// Byzantine voter can self-sign a vote for any cut), so the frontier is
// treated as a hint, never a suppressant: it decides *whether* this replica
// looks behind, while the retry cadence below decides *when* requests fire.
// An inflated frontier therefore costs bounded periodic requests — answered
// at most once per cut by each peer — and can never prevent a genuinely
// lagging replica from requesting.
func (r *Replica) noteFrontier(slot int) {
	if r.tracker != nil && slot > r.frontier {
		r.frontier = slot
	}
}

// lagging reports whether this replica sits a full checkpoint interval
// behind the observed frontier — a restarted process (whose in-flight
// messages died with it) or one lagging past the window.
func (r *Replica) lagging() bool {
	return r.tracker != nil && r.frontier-r.slot >= r.tracker.Interval()
}

// maybeRequest sends a state-transfer request while this replica is
// lagging. Requests are *targeted*, one peer per request, rotating
// deterministically with the nonce, and paced by deliveries rather than
// frontier growth: one request per ~interval's worth of cluster traffic
// while the gap persists, so an unanswered request (no cut certified yet,
// responder crashed or Byzantine-silent) rotates to the next peer
// unconditionally rather than waiting on a signal an adversary could have
// pre-spent. A response that comes back stale or unverifiable does not wait
// for the pacer — noteBadResponse re-requests from the next peer
// immediately, once per responder per catch-up epoch.
func (r *Replica) maybeRequest(out []types.Message) []types.Message {
	if !r.lagging() {
		return out
	}
	if r.sinceRequest > 0 {
		r.sinceRequest--
		return out
	}
	return r.sendRequest(out)
}

// sendRequest targets the next responder in the rotation with a fresh
// nonce and resets the pacer.
func (r *Replica) sendRequest(out []types.Message) []types.Message {
	r.sinceRequest = r.tracker.Interval() * len(r.cfg.Peers)
	target, ok := r.nextResponder()
	if !ok {
		return out
	}
	req := &types.CkptRequestPayload{Slot: r.slot, Nonce: r.reqNonce}
	r.reqNonce++
	if r.cfg.Telemetry != nil && r.reqAt == 0 {
		// Request→install is measured from the first request of the
		// catch-up epoch; retries within the epoch keep the original mark.
		r.reqAt = r.cfg.Telemetry.Now()
	}
	return append(out, types.Message{From: r.cfg.Me, To: target, Payload: req})
}

// nextResponder picks the request target: the nonce rotation's next peer,
// skipping responders that already answered badly this epoch. When every
// peer has been marked bad the set resets — the fallback loop must stay
// live, and a lost response (not the responder's fault) looks identical to
// a hostile one from here.
func (r *Replica) nextResponder() (types.ProcessID, bool) {
	if len(r.others) == 0 {
		return 0, false
	}
	start := r.reqNonce % len(r.others)
	for i := 0; i < len(r.others); i++ {
		p := r.others[(start+i)%len(r.others)]
		if pi, _ := r.spec.Index(p); !r.reqBad[pi] {
			return p, true
		}
	}
	clear(r.reqBad)
	return r.others[start], true
}

// noteBadResponse reacts to a transfer response that cannot help: stale
// (a full response at or below our own frontier) or unverifiable (forged
// votes or a poisoned snapshot). While lagging, the responder is marked and
// the request falls over to the next peer immediately; the per-responder
// mark bounds reactive retries to one per peer per catch-up epoch (the
// marks clear when a transfer installs). A non-peer is never marked and
// draws no re-request.
func (r *Replica) noteBadResponse(out []types.Message, from types.ProcessID, stale bool) []types.Message {
	if stale {
		r.staleResponses++
	} else {
		r.badResponses++
	}
	i, peer := r.spec.Index(from)
	if !r.lagging() || !peer || r.reqBad[i] {
		return out
	}
	r.reqBad[i] = true
	r.retries++
	return r.sendRequest(out)
}

// onCkpt handles the three checkpoint-plane payloads.
func (r *Replica) onCkpt(out []types.Message, m types.Message) []types.Message {
	switch p := m.Payload.(type) {
	case *types.CkptVotePayload:
		cert, advanced, verified := r.tracker.NoteVote(m.From, p)
		if advanced {
			out = r.afterCertified(out, cert)
		}
		if verified {
			// A verified vote also reveals the frontier: its voter claims
			// to have committed through p.Slot. Unverified votes reveal
			// nothing and must not touch any state.
			r.noteFrontier(p.Slot)
		}
	case *types.CkptRequestPayload:
		// Serve state transfer — latest certificate plus the snapshot at
		// its cut — if we are ahead of the requester and hold both. The
		// tracker dedups per (requester, cut, nonce): retries with fresh
		// nonces get re-served up to a small cap, replays cost nothing.
		cert, ok := r.tracker.Latest()
		if !ok || cert.Slot <= p.Slot {
			break
		}
		payload, ok := r.tracker.CertPayload(true)
		if !ok || !r.tracker.ShouldServe(m.From, p.Nonce) {
			break
		}
		out = append(out, types.Message{From: r.cfg.Me, To: m.From, Payload: payload})
	case *types.CkptCertPayload:
		cert, ok := r.tracker.VerifyCertPayload(p)
		if !ok {
			// Forged votes, sub-quorum, or snapshot/digest mismatch: count
			// it and, if we are waiting on a transfer, fall over to the
			// next responder.
			out = r.noteBadResponse(out, m.From, false)
			break
		}
		// A verified certificate is solid evidence the cluster committed
		// through its cut — unlike raw slot numbers in consensus traffic,
		// which are unauthenticated hints.
		r.noteFrontier(cert.Slot)
		if p.Snapshot != "" && cert.Slot > r.slot {
			out = r.install(out, cert, p.Snapshot)
			break
		}
		if p.Snapshot != "" && cert.Slot <= r.slot {
			// A full response that cannot advance us: what a stale-
			// certificate responder serves a catching-up replica.
			out = r.noteBadResponse(out, m.From, true)
		}
		if r.tracker.Adopt(cert, p.Snapshot) {
			// A bare certificate (or one not worth installing) still
			// advances our certified cut and releases residue.
			out = r.afterCertified(out, cert)
		}
	}
	return out
}

// afterCertified releases everything a freshly certified cut settles. The
// release floor is the cut capped at our own frontier: a cut certified
// ahead of this replica's progress (the cluster outran us) must not touch
// the live slots we are still working through.
func (r *Replica) afterCertified(out []types.Message, cert ckpt.Certificate) []types.Message {
	// Vote→certify latency: charged only for cuts this replica voted on
	// itself (a certificate adopted for a cut we never reached measures
	// the cluster, not this replica's checkpoint round-trip). Settled
	// entries are released so the map stays bounded by pending cuts.
	if start, ok := r.voteAt[cert.Slot]; ok {
		r.cfg.Telemetry.Observe(sim.PhaseCkptCertify, start)
	}
	maps.DeleteFunc(r.voteAt, func(s int, _ sim.Time) bool { return s <= cert.Slot })
	floor := cert.Slot
	if floor > r.slot {
		floor = r.slot
	}
	// The hook fires before truncation, so an embedding harness that tails
	// the log (LogSince) can drain the entries the cut is about to release.
	if r.cfg.OnCertified != nil {
		r.cfg.OnCertified(floor)
	}
	r.truncateLog(floor)
	r.values.DropSeqBelow(dissemNS + floor)
	r.persist()
	return out
}

// persist saves the latest certificate, its snapshot, and the retained log
// suffix to the durable store. Skipped when the snapshot at the cut is not
// held (certified from others' votes before reaching the cut locally — the
// older record on disk stays the recovery point until voteCheckpoint
// arms this cut). A failed save is counted and survived: the in-memory
// replica is still correct, only the recovery point ages.
func (r *Replica) persist() {
	if r.store == nil {
		return
	}
	p, ok := r.tracker.CertPayload(true)
	if !ok {
		return
	}
	rec := &ckpt.Record{Cert: *p}
	if len(r.log) > 0 {
		rec.Suffix = make([]ckpt.LogEntry, 0, len(r.log))
		for _, e := range r.log {
			rec.Suffix = append(rec.Suffix, ckpt.LogEntry{Slot: e.Slot, Index: e.Index, Proposer: e.Proposer, Command: e.Command})
		}
	}
	if err := r.store.Save(rec); err != nil {
		r.storeErrors++
	}
}

// truncateLog drops committed entries below the floor; logDigest keeps
// covering them (the certificate pinned the prefix digest). The slots past
// the new length are zeroed: a stale entry left there would keep its batch
// body alive until an append overwrote it.
func (r *Replica) truncateLog(floor int) {
	if floor <= r.base {
		return
	}
	k := sort.Search(len(r.log), func(i int) bool { return r.log[i].Slot >= floor })
	n := copy(r.log, r.log[k:])
	clear(r.log[n:])
	r.log = r.log[:n]
	r.base = floor
}

// install applies a verified state transfer: the snapshot becomes the new
// log base and the replica rejoins at the cut.
func (r *Replica) install(out []types.Message, cert ckpt.Certificate, snapshot string) []types.Message {
	if err := r.snap.Restore(snapshot); err != nil {
		// VerifyCertPayload checked the digest, so only a machine that
		// cannot parse its own snapshot format ends here; installing
		// nothing is the safe outcome.
		return out
	}
	r.transfers++
	if r.reqAt != 0 {
		r.cfg.Telemetry.Observe(sim.PhaseCkptInstall, r.reqAt)
		r.reqAt = 0
	}
	// Proposing turns the jump skips consume their queued commands: the
	// cluster committed those slots without us (as noops, or as whatever a
	// pre-crash instance disseminated), so re-proposing a consumed command
	// at a later slot would diverge from the log the cluster actually built.
	// Consumption mirrors proposalTake exactly — each skipped turn takes
	// what it would have taken had it disseminated (one command, or a whole
	// batch) — so nothing consumed is re-proposed and nothing unconsumed is
	// dropped.
	for s := r.slot; s < cert.Slot; s++ {
		if r.proposer(s) != r.cfg.Me || r.waiting[s] {
			continue
		}
		k := r.proposalTake()
		if k == 0 {
			break
		}
		r.queue = r.queue[k:]
	}
	r.armed = false
	r.slot = cert.Slot
	r.base = cert.Slot
	clear(r.log) // as in truncateLog: no stale entry keeps a body alive
	r.log = r.log[:0]
	r.logDigest = cert.LogDigest
	maps.DeleteFunc(r.cands, func(s int, _ string) bool { return s < r.slot })
	maps.DeleteFunc(r.waiting, func(s int, _ bool) bool { return s < r.slot })
	maps.DeleteFunc(r.pending, func(inst int, _ []types.Message) bool { return inst <= r.slot }) // binary instance s+1 serves slot s
	r.values.DropSeqBelow(dissemNS + r.slot)
	r.tracker.Adopt(cert, snapshot)
	// A fresh catch-up epoch: the responders marked bad were judged against
	// the previous cut, and the installed snapshot is the new recovery point.
	clear(r.reqBad)
	maps.DeleteFunc(r.restoreSuffix, func(k suffixKey, _ ckpt.LogEntry) bool { return k.slot < r.slot }) // these slots will never re-commit here
	r.persist()
	if r.cfg.OnCertified != nil {
		r.cfg.OnCertified(r.slot)
	}
	// It may be our turn at the cut, and buffered candidates/decides for
	// the slots above it resume in step().
	return r.propose(out)
}

type trafficKind int

const (
	trafficValues trafficKind = iota + 1
	trafficBinary
	trafficCoin
	trafficCkpt
)

// classify maps a message to its plane and the instance it names: the slot
// for dissemination traffic, the agreement instance (slot+1) for binary
// traffic.
func classify(m types.Message) (int, trafficKind) {
	if id, ok := types.BroadcastID(m.Payload); ok {
		if id.Tag.Seq >= dissemNS {
			return id.Tag.Seq - dissemNS, trafficValues
		}
		return id.Tag.Seq, trafficBinary
	}
	switch p := m.Payload.(type) {
	case *types.DecidePayload:
		return p.Instance, trafficBinary
	case *types.CoinSharePayload:
		return 0, trafficCoin
	case *types.CkptVotePayload, *types.CkptRequestPayload, *types.CkptCertPayload:
		return 0, trafficCkpt
	default:
		return 0, trafficBinary
	}
}

// step starts the current slot's consensus once its candidate arrived and
// finalizes slots as they decide, appending all emissions to out.
func (r *Replica) step(out []types.Message) []types.Message {
	for !r.Done() {
		if !r.armed {
			if _, ok := r.cands[r.slot]; !ok {
				return out
			}
			r.arm()
			out = r.bin.AppendStart(out)
			if buf, ok := r.pending[r.slot+1]; ok {
				for _, m := range buf {
					out = r.bin.AppendDeliver(out, m)
				}
				delete(r.pending, r.slot+1)
				clear(buf) // no buffered message keeps its payload alive
				r.spare = buf[:0]
			}
		}
		v, decided := r.bin.Decided()
		if !decided || !r.bin.Done() {
			return out
		}
		proposer := r.proposer(r.slot)
		switch body := r.cands[r.slot]; {
		case v != types.One:
			// 0-decision: the slot commits empty and nothing is applied.
			r.commitEntry(Entry{Slot: r.slot, Proposer: proposer}, false)
		case r.batchSize() > 1 && body != Noop:
			// Unbatch: one log entry per bundled command, in batch order,
			// each applied and digest-folded individually so every
			// entry-granular invariant (checkpoint cuts, state transfer,
			// suffix re-commit) holds with batching on. A body that is not
			// a canonical batch (a Byzantine proposer can disseminate any
			// bytes) commits as a single raw entry — the same deterministic
			// rule at every replica.
			if cmds, err := wire.DecodeBatch(body); err == nil {
				for i, cmd := range cmds {
					r.commitEntry(Entry{Slot: r.slot, Index: i, Proposer: proposer, Command: cmd}, true)
				}
			} else {
				r.commitEntry(Entry{Slot: r.slot, Proposer: proposer, Command: body}, true)
			}
		default:
			r.commitEntry(Entry{Slot: r.slot, Proposer: proposer, Command: body}, true)
		}
		// Per-slot pruning, the log layer's version of the per-round
		// invariant: a slot's candidate, dissemination flag, and RBC
		// dissemination instance are dead once the slot commits, so a long
		// log keeps a bounded working set instead of every candidate ever
		// proposed. The RBC instance compacts to a delivered record
		// (a no-op while non-terminal; see internal/rbc's pruning
		// contract), so late echoes from lagging replicas still meet the
		// exact silence the full state would have given them.
		r.values.Compact(types.InstanceID{
			Sender: r.proposer(r.slot),
			Tag:    types.Tag{Seq: dissemNS + r.slot},
		})
		delete(r.cands, r.slot)
		delete(r.waiting, r.slot)
		r.slot++
		r.armed = false
		if r.tracker != nil && r.slot%r.cfg.CheckpointEvery == 0 {
			out = r.voteCheckpoint(out)
		}
		out = r.propose(out)
	}
	return out
}

// arm starts the current slot's agreement instance (slot+1) on the
// replica's one engine: built at the first slot, re-armed at every later
// one, so its tables and blocks outlive the slot (see core.Node.Reset).
func (r *Replica) arm() {
	c := r.cfg.NewCoin(r.slot)
	var err error
	if r.bin == nil {
		r.bin, err = core.New(core.Config{
			Me: r.cfg.Me, Peers: r.cfg.Peers, Spec: r.spec,
			Coin:      c,
			Proposal:  types.One, // candidate in hand
			Instance:  r.slot + 1,
			Telemetry: r.cfg.Telemetry,
		})
	} else {
		err = r.bin.Reset(r.slot+1, c)
	}
	if err != nil {
		panic(fmt.Sprintf("smr: starting slot %d: %v", r.slot, err))
	}
	r.armed = true
}

// commitEntry appends one committed entry: applies it (when the slot
// decided 1 and the command is not the explicit noop), folds it into the
// chained log digest, and checks it against the durable restore suffix.
func (r *Replica) commitEntry(e Entry, apply bool) {
	if apply && e.Command != Noop {
		// A rejected command still commits; its error is dropped on
		// purpose. Apply is deterministic, so every replica rejects the
		// same command and leaves its state alike — agreement holds
		// (TestRejectedCommandCommitsEverywhere).
		_ = r.cfg.Machine.Apply(e.Command)
	}
	r.log = append(r.log, e)
	r.logDigest = ckpt.FoldEntry(r.logDigest, e.Slot, e.Proposer, e.Command)
	if r.restoreSuffix == nil {
		return
	}
	// Cross-restart divergence detector: an entry the pre-crash replica
	// had committed re-commits now (the restore resumed at the cut), and
	// must re-commit identically — agreement across the crash.
	k := suffixKey{e.Slot, e.Index}
	if want, ok := r.restoreSuffix[k]; ok {
		if want.Proposer != e.Proposer || want.Command != e.Command {
			r.suffixDivergence++
		}
		delete(r.restoreSuffix, k)
		if len(r.restoreSuffix) == 0 {
			r.restoreSuffix = nil
		}
	}
}

// voteCheckpoint takes this replica's checkpoint at the cut it just
// committed through — snapshot, digests, signed vote — retains the snapshot
// for state transfer, and broadcasts the vote. If the local vote completes
// a quorum (the rest of the cluster voted first), certification fires
// immediately.
func (r *Replica) voteCheckpoint(out []types.Message) []types.Message {
	snapshot := r.snap.Snapshot()
	c := ckpt.Checkpoint{
		Slot:        r.slot,
		StateDigest: ckpt.Digest(snapshot),
		LogDigest:   r.logDigest,
	}
	vote, cert, advanced := r.tracker.RecordLocal(c, snapshot)
	if r.cfg.Telemetry != nil {
		if r.voteAt == nil {
			r.voteAt = make(map[int]sim.Time)
		}
		r.voteAt[c.Slot] = r.cfg.Telemetry.Now()
	}
	out = types.AppendBroadcast(out, r.cfg.Me, r.others, vote)
	if advanced {
		out = r.afterCertified(out, cert)
	} else if latest, ok := r.tracker.Latest(); ok && latest.Slot == c.Slot {
		// The cluster certified this cut before we reached it (afterCertified
		// already fired with a capped floor); reaching it arms the snapshot,
		// so the durable recovery point can advance now.
		r.persist()
	}
	return out
}

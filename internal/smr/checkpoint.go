package smr

import (
	"errors"
	"maps"

	"repro/internal/ckpt"
	"repro/internal/sim"
	"repro/internal/types"
)

// checkpointing is the checkpoint plane: votes and certificates, state
// transfer and the durable store. All of it is nil/zero with
// CheckpointEvery == 0. Its methods take the ordering plane's next
// undecided slot as an argument where they compare against it.
type checkpointing struct {
	cfg *Config

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

	// Durable-store state (zero without Config.Store).
	storeErrors      int                         // failed saves, corrupt or unverifiable loads
	restoredCut      int                         // cut installed from disk at boot (0 = none)
	restoreSuffix    map[suffixKey]ckpt.LogEntry // persisted suffix entries awaiting re-commit
	suffixDivergence int                         // re-committed entries that contradicted the suffix
}

// suffixKey addresses one persisted suffix entry: batched proposals commit
// several entries per slot, so slot alone does not identify an entry.
type suffixKey struct{ slot, index int }

// restore boots the checkpoint plane from its durable record, if one exists
// and survives the same verification gate as a network state transfer:
// checksum and strict decode in the store, then the certificate's MAC
// quorum and the snapshot digest here. On success it returns the
// certificate, and the replica resumes *at the cut* — slot, base, log
// digest, and machine state all jump there — and the persisted log suffix
// becomes a cross-restart divergence detector: the suffix slots re-commit
// through ordinary consensus, and any re-committed entry that contradicts
// the persisted one is counted in suffixDivergence. Every failure (no
// record, torn file, corruption, unverifiable certificate, unrestorable
// snapshot) degrades to an empty start and network state transfer.
func (c *checkpointing) restore() (ckpt.Certificate, bool) {
	if c.cfg.Store == nil {
		return ckpt.Certificate{}, false
	}
	rec, err := c.cfg.Store.Load()
	if err != nil {
		if !errors.Is(err, ckpt.ErrNoRecord) {
			c.storeErrors++
		}
		return ckpt.Certificate{}, false
	}
	cert, ok := c.tracker.VerifyCertPayload(&rec.Cert)
	if !ok || cert.Slot <= 0 || c.snap.Restore(rec.Cert.Snapshot) != nil {
		c.storeErrors++
		return ckpt.Certificate{}, false
	}
	c.restoredCut = cert.Slot
	c.tracker.Adopt(cert, rec.Cert.Snapshot)
	if len(rec.Suffix) > 0 {
		c.restoreSuffix = make(map[suffixKey]ckpt.LogEntry, len(rec.Suffix))
		for _, e := range rec.Suffix {
			if e.Slot >= cert.Slot {
				c.restoreSuffix[suffixKey{e.Slot, e.Index}] = e
			}
		}
	}
	return cert, true
}

// recommitted checks a committed entry against the durable restore suffix:
// an entry the pre-crash replica had committed re-commits now (the restore
// resumed at the cut), and must re-commit identically — agreement across
// the crash.
func (c *checkpointing) recommitted(e Entry) {
	k := suffixKey{e.Slot, e.Index}
	if want, ok := c.restoreSuffix[k]; ok {
		if want.Proposer != e.Proposer || want.Command != e.Command {
			c.suffixDivergence++
		}
		delete(c.restoreSuffix, k)
	}
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
func (c *checkpointing) noteFrontier(slot int) {
	if c.tracker != nil && slot > c.frontier {
		c.frontier = slot
	}
}

// lagging reports whether a replica at slot sits a full checkpoint interval
// behind the observed frontier — a restarted process (whose in-flight
// messages died with it) or one lagging past the window.
func (c *checkpointing) lagging(slot int) bool {
	return c.tracker != nil && c.frontier-slot >= c.tracker.Interval()
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
func (c *checkpointing) maybeRequest(out []types.Message, slot int) []types.Message {
	if !c.lagging(slot) {
		return out
	}
	if c.sinceRequest > 0 {
		c.sinceRequest--
		return out
	}
	return c.sendRequest(out, slot)
}

// sendRequest targets the next responder in the rotation with a fresh
// nonce and resets the pacer.
func (c *checkpointing) sendRequest(out []types.Message, slot int) []types.Message {
	c.sinceRequest = c.tracker.Interval() * len(c.cfg.Peers)
	target, ok := c.nextResponder()
	if !ok {
		return out
	}
	req := &types.CkptRequestPayload{Slot: slot, Nonce: c.reqNonce}
	c.reqNonce++
	if c.cfg.Telemetry != nil && c.reqAt == 0 {
		// Request→install is measured from the first request of the
		// catch-up epoch; retries within the epoch keep the original mark.
		c.reqAt = c.cfg.Telemetry.Now()
	}
	return append(out, types.Message{From: c.cfg.Me, To: target, Payload: req})
}

// nextResponder picks the request target: the nonce rotation's next peer,
// skipping responders that already answered badly this epoch. When every
// peer has been marked bad the set resets — the fallback loop must stay
// live, and a lost response (not the responder's fault) looks identical to
// a hostile one from here.
func (c *checkpointing) nextResponder() (types.ProcessID, bool) {
	if len(c.others) == 0 {
		return 0, false
	}
	start := c.reqNonce % len(c.others)
	for i := 0; i < len(c.others); i++ {
		p := c.others[(start+i)%len(c.others)]
		if pi, _ := c.cfg.Spec.Index(p); !c.reqBad[pi] {
			return p, true
		}
	}
	clear(c.reqBad)
	return c.others[start], true
}

// noteBadResponse reacts to a transfer response that cannot help: stale
// (a full response at or below our own frontier) or unverifiable (forged
// votes or a poisoned snapshot). While lagging, the responder is marked and
// the request falls over to the next peer immediately; the per-responder
// mark bounds reactive retries to one per peer per catch-up epoch (the
// marks clear when a transfer installs). Only peers reach the plane, so
// every responder has a mark.
func (c *checkpointing) noteBadResponse(out []types.Message, from types.ProcessID, stale bool, slot int) []types.Message {
	if stale {
		c.staleResponses++
	} else {
		c.badResponses++
	}
	i, _ := c.cfg.Spec.Index(from)
	if !c.lagging(slot) || c.reqBad[i] {
		return out
	}
	c.reqBad[i] = true
	c.retries++
	return c.sendRequest(out, slot)
}

// onCkpt handles the three checkpoint-plane payloads for a replica at slot.
// When the payload certifies a cut newer than this replica's, it returns
// the certificate with ok set, and the snapshot too when the replica should
// install it (Replica.install); without one the cut only releases residue
// (Replica.cut).
func (c *checkpointing) onCkpt(out []types.Message, m types.Message, slot int) ([]types.Message, ckpt.Certificate, string, bool) {
	if c.tracker == nil {
		return out, ckpt.Certificate{}, "", false
	}
	switch p := m.Payload.(type) {
	case *types.CkptVotePayload:
		cert, advanced, verified := c.tracker.NoteVote(m.From, p)
		if verified {
			// A verified vote also reveals the frontier: its voter claims
			// to have committed through p.Slot. Unverified votes reveal
			// nothing and must not touch any state.
			c.noteFrontier(p.Slot)
		}
		return out, cert, "", advanced
	case *types.CkptRequestPayload:
		// Serve state transfer — latest certificate plus the snapshot at
		// its cut — if we are ahead of the requester and hold both. The
		// tracker dedups per (requester, cut, nonce): retries with fresh
		// nonces get re-served up to a small cap, replays cost nothing.
		if latest, ok := c.tracker.Latest(); ok && latest.Slot > p.Slot {
			if payload, ok := c.tracker.CertPayload(true); ok && c.tracker.ShouldServe(m.From, p.Nonce) {
				out = append(out, types.Message{From: c.cfg.Me, To: m.From, Payload: payload})
			}
		}
	case *types.CkptCertPayload:
		cert, ok := c.tracker.VerifyCertPayload(p)
		if !ok {
			// Forged votes, sub-quorum, or snapshot/digest mismatch: count
			// it and, if we are waiting on a transfer, fall over to the
			// next responder.
			return c.noteBadResponse(out, m.From, false, slot), cert, "", false
		}
		// A verified certificate is solid evidence the cluster committed
		// through its cut — unlike raw slot numbers in consensus traffic,
		// which are unauthenticated hints.
		c.noteFrontier(cert.Slot)
		if p.Snapshot != "" && cert.Slot > slot {
			return out, cert, p.Snapshot, true
		}
		if p.Snapshot != "" {
			// A full response that cannot advance us: what a stale-
			// certificate responder serves a catching-up replica.
			out = c.noteBadResponse(out, m.From, true, slot)
		}
		// A bare certificate (or one not worth installing) still advances
		// our certified cut and releases residue.
		return out, cert, "", c.tracker.Adopt(cert, p.Snapshot)
	}
	return out, ckpt.Certificate{}, "", false
}

// certified settles the vote→certify latency: charged only for cuts this
// replica voted on itself (a certificate adopted for a cut we never reached
// measures the cluster, not this replica's checkpoint round-trip). Settled
// entries are released so the map stays bounded by pending cuts.
func (c *checkpointing) certified(cut int) {
	if start, ok := c.voteAt[cut]; ok {
		c.cfg.Telemetry.Observe(sim.PhaseCkptCertify, start)
	}
	maps.DeleteFunc(c.voteAt, func(s int, _ sim.Time) bool { return s <= cut })
}

// install restores a verified state transfer's snapshot and adopts its
// certificate, reporting false (and changing nothing) when the machine
// cannot parse the snapshot.
func (c *checkpointing) install(cert ckpt.Certificate, snapshot string) bool {
	if err := c.snap.Restore(snapshot); err != nil {
		// VerifyCertPayload checked the digest, so only a machine that
		// cannot parse its own snapshot format ends here; installing
		// nothing is the safe outcome.
		return false
	}
	c.transfers++
	if c.reqAt != 0 {
		c.cfg.Telemetry.Observe(sim.PhaseCkptInstall, c.reqAt)
		c.reqAt = 0
	}
	c.tracker.Adopt(cert, snapshot)
	// A fresh catch-up epoch: the responders marked bad were judged against
	// the previous cut, and the installed snapshot is the new recovery point.
	clear(c.reqBad)
	maps.DeleteFunc(c.restoreSuffix, func(k suffixKey, _ ckpt.LogEntry) bool { return k.slot < cert.Slot }) // these slots will never re-commit here
	return true
}

// persist saves the latest certificate, its snapshot, and the retained log
// suffix to the durable store. Skipped when the snapshot at the cut is not
// held (certified from others' votes before reaching the cut locally — the
// older record on disk stays the recovery point until vote arms this cut).
// A failed save is counted and survived: the in-memory replica is still
// correct, only the recovery point ages.
func (c *checkpointing) persist(log []Entry) {
	if c.cfg.Store == nil {
		return
	}
	p, ok := c.tracker.CertPayload(true)
	if !ok {
		return
	}
	rec := &ckpt.Record{Cert: *p, Suffix: make([]ckpt.LogEntry, 0, len(log))}
	for _, e := range log {
		rec.Suffix = append(rec.Suffix, ckpt.LogEntry{Slot: e.Slot, Index: e.Index, Proposer: e.Proposer, Command: e.Command})
	}
	if err := c.cfg.Store.Save(rec); err != nil {
		c.storeErrors++
	}
}

// vote takes this replica's checkpoint at the cut it just committed through
// — snapshot, digests, signed vote — retains the snapshot for state
// transfer, and broadcasts the vote. If the local vote completes a quorum
// (the rest of the cluster voted first), it returns the certificate with ok
// set, for Replica.cut.
func (c *checkpointing) vote(out []types.Message, slot int, digest uint64, log []Entry) ([]types.Message, ckpt.Certificate, bool) {
	snapshot := c.snap.Snapshot()
	mark := ckpt.Checkpoint{Slot: slot, StateDigest: ckpt.Digest(snapshot), LogDigest: digest}
	vote, cert, ok := c.tracker.RecordLocal(mark, snapshot)
	if c.cfg.Telemetry != nil {
		if c.voteAt == nil {
			c.voteAt = make(map[int]sim.Time)
		}
		c.voteAt[slot] = c.cfg.Telemetry.Now()
	}
	out = types.AppendBroadcast(out, c.cfg.Me, c.others, vote)
	if latest, certified := c.tracker.Latest(); !ok && certified && latest.Slot == slot {
		// The cluster certified this cut before we reached it (the cut
		// already fired with a capped floor); reaching it arms the snapshot,
		// so the durable recovery point can advance now.
		c.persist(log)
	}
	return out, cert, ok
}

// Package rbc implements Bracha's reliable broadcast, the first contribution
// of the PODC-84 paper and the primitive every consensus step message rides
// on. It guarantees, with n > 3f and authenticated asynchronous links:
//
//   - Validity: if the sender is correct, every correct process delivers its
//     message.
//   - Agreement (consistency): no two correct processes deliver different
//     messages for the same instance — a Byzantine sender cannot
//     equivocate.
//   - Integrity: every correct process delivers at most once per instance.
//   - Totality: if any correct process delivers, every correct process
//     eventually delivers.
//
// Mechanics (per instance, identified by sender and application tag):
//
//	sender:   SEND(body) to all
//	on SEND(body) from the instance's sender, first one only:
//	          ECHO(body) to all
//	on ⌈(n+f+1)/2⌉ ECHO(body), or f+1 READY(body), if no READY sent yet:
//	          READY(body) to all
//	on 2f+1 READY(body), if not yet delivered:
//	          deliver(body)
//
// The echo threshold makes two quorums for different bodies impossible; the
// f+1 READY amplification makes delivery contagious (totality); 2f+1 READYs
// contain at least f+1 correct witnesses, which seed the amplification at
// every other correct process.
//
// # Pruning contract
//
// Owners bound per-instance memory by compacting *terminal* instances —
// echoed, readied and delivered — via Compact (the SMR log, per slot) or
// PruneBelow (the consensus core, below round r−1 on entering round r). A
// terminal instance provably emits nothing again, so compaction replaces
// its tallies and payloads with a bare delivered record and handles its
// late messages as a silent no-op: byte-for-byte what the full state would
// have sent, which the golden replay hashes pin. The instance stays
// delivered; the delivered body lives with the owner that consumed it. A straggler
// still delivers: every correct process sent its READY before its instance
// became terminal, so the 2f+1 it needs are on the wire, not in the pruned
// state. Non-terminal instances (a crashed sender's half-finished
// broadcast) are never compacted: they may still owe an echo or an
// amplification — one that PruneBelow's floor passes leaves the instance
// window for the overflow map (below) and stays live there, at full
// fidelity, until it is terminal and a later PruneBelow compacts it.
//
// # Instance table
//
// One table serves both dissemination modes: a plain instance and a coded
// one (coded.go) are the same instance type, with the coded-only state —
// fragment sets, interned tally keys, fragment and checksum fan-out payloads
// — behind one pointer, so lookup, compaction, pruning and dropping have one
// code path. A consensus instance's step messages are one broadcast per
// (round, step, sender), and every one of them costs ~2n echo and ready
// messages at each process, so the lookup those messages pay is the hot
// path. Round-tagged plain instances of the owner's consensus instance
// therefore live in a window: a slice of instance pointers indexed by
// (round, step, sender's peer index) over windowRounds rounds starting at
// the PruneBelow floor. Which consensus instance the window serves is fixed
// by this process's own first round-tagged broadcast, never by received
// traffic; a coded broadcaster never opens one. Everything else — other
// instances' Seqs, senders that are not peers, rounds past the window, the
// roundless namespace, every coded instance — lives in an overflow map
// keyed by InstanceID.
// PruneBelow slides the window: a terminal instance below the new floor
// becomes a delivered record, as above; a non-terminal one moves to the
// overflow map and stays live there; overflow instances the new span covers
// move in. A Byzantine peer flooding far-future rounds or foreign Seqs grows
// the overflow map by one entry per instance and never the window.
//
// The delivered records of the window's consensus instance are bits, not map
// entries: one row of 3·n bits per round, the bit at (step, sender's peer
// index), in rows that grow to the highest round recorded. Only rounds the
// window has slid past qualify, up to a bound each slide raises by at most
// windowRounds, so however far a floor jumps the rows grow by a few rounds
// per PruneBelow. Every other record — roundless, another Seq, a sender that
// is not a peer, a round past the bound — is a key of the compacted map.
// Both count as records of compactedRecordBytes each (Compacted,
// DigestBytes).
//
// # Allocation
//
// A plain instance lives from its first message to its release, and its ECHO
// and READY fan-out payloads are fields of it, shared by every copy of the
// fan-out; the SEND of this process's own broadcast is one payload shared by
// its n copies. Neither is built per message: newInstance and AppendBroadcast
// hand out the next slot of a block of blockLen instances or SEND payloads,
// allocated when the last block is used up (a coded instance's state and
// fragment table come from blocks of their own under the same rules; see
// coded.go). A slot is handed out exactly once. A released instance is never
// reused: the garbage collector frees a block once no window cell, overflow
// entry, in-flight ECHO, READY or SEND copy, or the broadcaster's own unused
// rest of it points into any of its slots. So a copy still on the wire when
// its instance is compacted keeps reading its original body, and every
// payload stays immutable. Four is measured, not tuned: four 216-byte
// instances fill the 896-byte size class, 224 bytes each as one alone costs,
// so what a block can waste is its unused rest when its broadcaster is
// dropped — and the replicated log drops a broadcaster per slot and replica.
// Against blocks of four, blocks of 8 allocated 0.2–1.6 % more bytes across
// the benchmark's workloads and blocks of 16 2.5–13 % more.
package rbc

import (
	"fmt"
	"maps"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Delivery is one reliable-broadcast output: instance and agreed body.
type Delivery struct {
	ID   types.InstanceID
	Body string
}

// String implements fmt.Stringer.
func (d Delivery) String() string { return fmt.Sprintf("deliver %s: %q", d.ID, d.Body) }

// Broadcaster multiplexes all reliable-broadcast instances of one process.
// It is a deterministic state machine: Handle consumes one payload and
// returns the messages and deliveries it triggers. Not safe for concurrent
// use; the owning node serializes input.
type Broadcaster struct {
	me    types.ProcessID
	peers []types.ProcessID
	spec  quorum.Spec
	// win is the instance window (see "Instance table" in the package doc):
	// the live instance of (round, step, sender) of consensus instance
	// winSeq sits at cell windowCell, for winBase <= round < winBase +
	// windowRounds; winLive counts the non-nil cells. win stays nil until
	// this process's first round-tagged broadcast fixes winSeq, and in coded
	// mode. instances is the overflow map for every live instance the window
	// cannot hold; it stays nil until its first instance.
	win       []*instance
	winSeq    int
	winBase   int
	winLive   int
	instances map[types.InstanceID]*instance
	// rows and compacted record every instance released by
	// Compact/PruneBelow (see the pruning contract in the package doc): a
	// bit or a map key instead of tallies and payloads. Handling a message
	// for a compacted instance is a silent no-op, identical to what the
	// retained terminal state would have done. rows holds the window
	// instance's records at rounds 1..rowTop (see "Instance table"), one row
	// of rowWords words per round; rowRecords counts its set bits.
	// compacted holds every other record; nil until its first.
	rows       []uint64
	rowWords   int
	rowTop     int
	rowRecords int
	compacted  map[types.InstanceID]struct{}
	// words is the bitset length every tally uses: a vote is one bit at its
	// sender's peer index (quorum.Spec.Index), so the per-(body, sender)
	// bookkeeping of the counting path is a bit test.
	words int
	// bits is the unused rest of the chunk every tally's seen bitset is
	// carved from (see newSeen); deliv backs the one delivery a handler call
	// can yield (see AppendHandle).
	bits  []uint64
	deliv [1]Delivery
	// spare and sends are the unused rest of the blocks newInstance and
	// AppendBroadcast hand instances and SEND payloads out of (see
	// "Allocation" in the package doc).
	spare []instance
	sends []types.RBCPayload
	// seqFloor is the protocol-level drop watermark (see DropSeqBelow):
	// instances below it hold no state at all, not even a delivered record,
	// and all their traffic is a silent no-op.
	seqFloor int
	// code switches the broadcaster into AVID-style coded dissemination when
	// non-nil (see coded.go and NewCoded): broadcasts disperse Reed–Solomon
	// fragments instead of full bodies, and every instance carries coded
	// state. The plain and coded modes are mutually silent: a coded
	// broadcaster ignores plain RBC phases and vice versa, so a mixed-mode
	// peer cannot inject state into either mode. The code carries the coded
	// path's reusable buffers with it, so a plain broadcaster holds none.
	code *coder
	// tele, when non-nil, receives the RBC phase marks: instance first seen
	// → echo quorum / ready quorum / delivery (see sim.Telemetry). All
	// calls are nil-safe, so a detached broadcaster pays a branch, nothing
	// more.
	tele *sim.Telemetry
}

// SetTelemetry attaches the phase-latency sink (nil detaches). The sink
// must be the one the owning network was configured with — its clock is
// what turns first-seen marks into latencies.
func (b *Broadcaster) SetTelemetry(t *sim.Telemetry) { b.tele = t }

// windowRounds is the round span of the instance window. The consensus core
// sets the floor to r−1 on entering round r, so the window holds the previous
// round, the current one and two rounds of faster peers' traffic.
const windowRounds = 4

// New creates a Broadcaster for process me among peers (which must include
// me, matching the paper's "send to all" that includes the sender). It
// panics unless peers is 1..n with me among them (quorum.Spec.CheckPeers),
// the membership every caller builds with types.Processes.
func New(me types.ProcessID, peers []types.ProcessID, spec quorum.Spec) *Broadcaster {
	if err := spec.CheckPeers(me, peers); err != nil {
		panic(fmt.Sprintf("rbc: %v", err))
	}
	return &Broadcaster{
		me:       me,
		peers:    append([]types.ProcessID(nil), peers...),
		spec:     spec,
		winBase:  1,
		words:    (len(peers) + 63) / 64,
		rowWords: (3*len(peers) + 63) / 64,
	}
}

// blockLen is how many instances, or SEND payloads, one allocation holds
// (see "Allocation" in the package doc).
const blockLen = 4

// next hands out the first unused slot of *block, allocating a fresh block
// once the last is used up; no slot is handed out twice.
func next[T any](block *[]T) *T {
	if len(*block) == 0 {
		*block = make([]T, blockLen)
	}
	p := &(*block)[0]
	*block = (*block)[1:]
	return p
}

// tally counts the distinct peers supporting one body of one instance, as an
// echo and as a ready: seen is two bitsets over peer indices, the echo
// words then the ready words, and echoes/readies are their popcounts.
// Counting a vote is a bit test, not a map operation. In coded mode the body
// is the dispersal's tally key (see coded.go); consistent broadcast's
// tallies hold the echo words only (see consistent.go).
type tally struct {
	body            string
	seen            []uint64
	echoes, readies int
}

// instance is the per-(sender, tag) state. The tallies are a small slice
// scanned linearly by body: a correct sender yields exactly one body, an
// equivocating sender a handful, and each distinct body costs its attacker
// an RBC-phase message per appearance anyway.
//
// A plain instance embeds this process's own ECHO and READY fan-out
// payloads: each is written at most once (guarded by echoed/readied) and
// then shared, immutable, by every outgoing copy of the broadcast, so the
// fan-out reuses one payload allocated with the instance instead of
// constructing a fresh one — the last per-payload allocation on the
// echo/ready path. A coded instance keeps its fan-out payloads, with the
// rest of its coded-only state, behind coded (nil in plain mode).
type instance struct {
	echoed    bool // this process echoed a body (at most one, ever)
	readied   bool // this process sent READY for a body (at most one)
	delivered bool
	// readyQuorum latches the 2f+1-readies phase mark (observed once); t0
	// is the instance's first-seen time, the start mark every RBC phase
	// latency is measured from.
	readyQuorum bool
	t0          sim.Time

	echoPayload  types.RBCPayload
	readyPayload types.RBCPayload

	// tallies starts out backed by first, so a correct sender's one body
	// costs no allocation beyond the instance; a second (equivocated) body
	// moves the tallies to the heap.
	tallies []tally
	first   [1]tally
	coded   *codedState
}

// terminal reports whether the instance can never emit again: it echoed,
// readied, and delivered, so every remaining handler path is a silent tally
// update. Only terminal instances may be compacted.
func (in *instance) terminal() bool { return in.echoed && in.readied && in.delivered }

// cell returns id's window cell, or nil if the window cannot hold id: no
// window yet, another consensus instance, a round outside the span (the
// bounds are checked before subtracting, so no round wraps), a step that is
// not one of the three, or a sender that is not a peer.
func (b *Broadcaster) cell(id types.InstanceID) **instance {
	r, s := id.Tag.Round, id.Tag.Step
	if b.win == nil || id.Tag.Seq != b.winSeq || r < b.winBase || r-b.winBase >= windowRounds || !s.Valid() {
		return nil
	}
	pi, ok := b.spec.Index(id.Sender)
	if !ok {
		return nil
	}
	return &b.win[b.windowCell(r, s, pi)]
}

// windowCell is the index of (round, step, peer index) in win: rows of
// 3·len(peers) cells, one row per round modulo windowRounds.
func (b *Broadcaster) windowCell(round int, s types.Step, pi int) int {
	return ((round%windowRounds)*3+int(s)-1)*len(b.peers) + pi
}

// lookup returns id's live instance (nil if none) and its window cell (nil
// if the window cannot hold id, in which case it lives in the overflow map
// if anywhere).
func (b *Broadcaster) lookup(id types.InstanceID) (*instance, **instance) {
	if c := b.cell(id); c != nil {
		return *c, c
	}
	return b.instances[id], nil
}

// live is the preamble of every handler: it returns id's live instance (nil
// if none yet) and window cell, or ok = false if traffic for id must be
// silent. The live instance comes first — a window hit is one slice index.
// Only on a miss can the instance be compacted, and compacted instances
// answer every late message with silence, exactly what their retained
// terminal state would have produced (see the pruning contract): no echo
// (echoed), no READY (readied), no delivery (delivered). No allocation, no
// regrowth. The same silence covers instances below the drop watermark,
// whose records are gone entirely.
func (b *Broadcaster) live(id types.InstanceID) (in *instance, c **instance, ok bool) {
	if c = b.cell(id); c != nil {
		in = *c
	}
	if in == nil {
		if b.recorded(id) || b.belowSeqFloor(id) {
			return nil, nil, false
		}
		if c == nil {
			in = b.instances[id]
		}
	}
	return in, c, true
}

// newInstance creates id's live instance in window cell c, or in the
// overflow map when c is nil; in coded mode it carries coded state.
func (b *Broadcaster) newInstance(id types.InstanceID, c **instance) *instance {
	in := next(&b.spare)
	in.t0 = b.tele.Now()
	in.tallies = in.first[:0]
	if b.code != nil {
		in.coded = next(&b.code.states)
	}
	if c != nil {
		*c = in
		b.winLive++
	} else {
		b.addOverflow(id, in)
	}
	return in
}

// addOverflow puts the live instance id in the overflow map, which stays
// nil until its first instance.
func (b *Broadcaster) addOverflow(id types.InstanceID, in *instance) {
	if b.instances == nil {
		b.instances = make(map[types.InstanceID]*instance)
	}
	b.instances[id] = in
}

// rowBit returns the word and bit of id's delivered record in rows, or ok =
// false if its record belongs in the compacted map: id is not a step message
// of the window's consensus instance from a peer at a round in 1..rowTop.
// The word may lie past the rows grown so far.
func (b *Broadcaster) rowBit(id types.InstanceID) (w int, bit uint64, ok bool) {
	r, s := id.Tag.Round, id.Tag.Step
	if b.win == nil || id.Tag.Seq != b.winSeq || r < 1 || r > b.rowTop || !s.Valid() {
		return 0, 0, false
	}
	pi, ok := b.spec.Index(id.Sender)
	if !ok {
		return 0, 0, false
	}
	i := (int(s)-1)*len(b.peers) + pi
	return (r-1)*b.rowWords + i>>6, uint64(1) << (i & 63), true
}

// recorded reports whether id is a delivered record.
func (b *Broadcaster) recorded(id types.InstanceID) bool {
	if w, bit, ok := b.rowBit(id); ok && w < len(b.rows) && b.rows[w]&bit != 0 {
		return true
	}
	_, done := b.compacted[id]
	return done
}

// markCompacted records id as a delivered record: a bit in rows, grown to
// id's round if need be, or a key of the compacted map, which stays nil
// until its first.
func (b *Broadcaster) markCompacted(id types.InstanceID) {
	if w, bit, ok := b.rowBit(id); ok {
		if w >= len(b.rows) {
			end := (w/b.rowWords + 1) * b.rowWords
			b.rows = append(b.rows, make([]uint64, end-len(b.rows))...)
		}
		if b.rows[w]&bit == 0 {
			b.rows[w] |= bit
			b.rowRecords++
		}
		return
	}
	if b.compacted == nil {
		b.compacted = make(map[types.InstanceID]struct{})
	}
	b.compacted[id] = struct{}{}
}

// release turns the live instance id, in (in window cell c, or in the
// overflow map when c is nil), into a delivered record.
func (b *Broadcaster) release(id types.InstanceID, in *instance, c **instance) {
	b.markCompacted(id)
	if in.coded != nil {
		in.coded.retire()
	}
	if c != nil {
		*c = nil
		b.winLive--
	} else {
		delete(b.instances, id)
	}
}

// enter moves overflow instance id into the window if the window now covers
// it.
func (b *Broadcaster) enter(id types.InstanceID, in *instance) {
	if c := b.cell(id); c != nil {
		*c = in
		b.winLive++
		delete(b.instances, id)
	}
}

// vote records peer index pi as supporting body in in's tallies — as a
// READY if ready, else as an ECHO — and returns body's updated echo and
// ready supporter counts.
func (b *Broadcaster) vote(in *instance, body string, pi int, ready bool) (echoes, readies int) {
	var t *tally
	for i := range in.tallies {
		if in.tallies[i].body == body {
			t = &in.tallies[i]
			break
		}
	}
	if t == nil {
		in.tallies = append(in.tallies, tally{body: body, seen: b.newSeen()})
		t = &in.tallies[len(in.tallies)-1]
	}
	w, bit, count := pi>>6, uint64(1)<<(pi&63), &t.echoes
	if ready {
		w, count = w+b.words, &t.readies
	}
	if t.seen[w]&bit == 0 {
		t.seen[w] |= bit
		*count++
	}
	return t.echoes, t.readies
}

// newSeen returns a zeroed tally bitset of 2·words words, carved from a
// chunk that holds a round's worth of window instances (3·n tallies). The
// three-index slice caps each bitset at its own words, so no two tallies
// share one.
func (b *Broadcaster) newSeen() []uint64 {
	w := 2 * b.words
	if len(b.bits) < w {
		b.bits = make([]uint64, 3*len(b.peers)*w)
	}
	seen := b.bits[:w:w]
	b.bits = b.bits[w:]
	return seen
}

// Broadcast starts an instance with this process as sender: it emits the
// SEND to every peer (including itself; the echo happens on receipt, so a
// process's own broadcast follows the same path as everyone else's).
func (b *Broadcaster) Broadcast(tag types.Tag, body string) []types.Message {
	return b.AppendBroadcast(nil, tag, body)
}

// AppendBroadcast is Broadcast appending into a caller-provided slice. In
// coded mode the SEND is replaced by a per-peer fragment dispersal (see
// appendDisperse); deliveries are unchanged, only the wire format differs.
func (b *Broadcaster) AppendBroadcast(out []types.Message, tag types.Tag, body string) []types.Message {
	if b.code != nil {
		return b.appendDisperse(out, tag, body)
	}
	if b.win == nil && tag.Round > 0 {
		// This process's first round-tagged broadcast names the consensus
		// instance the window serves; instances of it that arrived earlier
		// move in.
		b.win = make([]*instance, windowRounds*3*len(b.peers))
		b.winSeq = tag.Seq
		// order-free: each instance moves to its own window cell
		for id, in := range b.instances {
			b.enter(id, in)
		}
	}
	p := next(&b.sends)
	*p = types.RBCPayload{Phase: types.KindRBCSend, ID: types.InstanceID{Sender: b.me, Tag: tag}, Body: body}
	return types.AppendBroadcast(out, b.me, b.peers, p)
}

// Handle processes one incoming RBC payload from `from` and returns the
// protocol messages plus any deliveries it triggers. Malformed payloads
// (wrong phase kinds, SENDs not from the claimed sender) are ignored.
//
// A handler call yields at most one delivery, and the returned slice is
// the broadcaster's own: it is valid only until the next handler call on
// the same broadcaster (Handle, AppendHandle, AppendHandleFrag,
// AppendHandleSum, AppendHandlePayload), so callers consume it at once.
func (b *Broadcaster) Handle(from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	return b.AppendHandle(nil, from, p)
}

// AppendHandlePayload hands a broadcast payload of any of the three kinds
// (see types.BroadcastID) to its handler: AppendHandle, AppendHandleFrag or
// AppendHandleSum. For any other payload it reports ok = false and returns
// out untouched. The deliveries are valid until the next handler call, as
// Handle's are.
func (b *Broadcaster) AppendHandlePayload(out []types.Message, from types.ProcessID, p types.Payload) (_ []types.Message, _ []Delivery, ok bool) {
	var ds []Delivery
	switch p := p.(type) {
	case *types.RBCPayload:
		out, ds = b.AppendHandle(out, from, p)
	case *types.RBCFragPayload:
		out, ds = b.AppendHandleFrag(out, from, p)
	case *types.RBCSumPayload:
		out, ds = b.AppendHandleSum(out, from, p)
	default:
		return out, nil, false
	}
	return out, ds, true
}

// AppendHandle is Handle appending protocol messages into a caller-provided
// slice — the allocation-free path for nodes that reuse an output buffer.
// The deliveries are valid until the next handler call, as Handle's are.
func (b *Broadcaster) AppendHandle(out []types.Message, from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	if p == nil || b.code != nil {
		// A coded broadcaster is silent to plain RBC phases: its quorums count
		// fragment echoes and checksum readies only (AppendHandleFrag,
		// AppendHandleSum), so a mixed-mode peer cannot vote here.
		return out, nil
	}
	in, c, ok := b.live(p.ID)
	if !ok {
		return out, nil
	}
	switch p.Phase {
	case types.KindRBCSend:
		// Authenticated links: a SEND for instance (s, tag) counts only if
		// it actually came from s.
		if from != p.ID.Sender {
			return out, nil
		}
		if in == nil {
			in = b.newInstance(p.ID, c)
		}
		return b.onSend(out, in, p), nil
	case types.KindRBCEcho, types.KindRBCReady:
		pi, ok := b.spec.Index(from)
		if !ok {
			return out, nil // only peers hold votes toward the quorums
		}
		if in == nil {
			in = b.newInstance(p.ID, c)
		}
		echoes, readies := b.vote(in, p.Body, pi, p.Phase == types.KindRBCReady)
		return b.maybeReadyAndDeliver(out, in, p.ID, p.Body, echoes, readies)
	default:
		return out, nil
	}
}

func (b *Broadcaster) onSend(out []types.Message, in *instance, p *types.RBCPayload) []types.Message {
	if in.echoed {
		return out // already echoed a body for this instance (first SEND wins)
	}
	in.echoed = true
	in.echoPayload = types.RBCPayload{Phase: types.KindRBCEcho, ID: p.ID, Body: p.Body}
	return types.AppendBroadcast(out, b.me, b.peers, &in.echoPayload)
}

// maybeReadyAndDeliver applies the two threshold rules for body after any
// counter change, given body's current echo and ready supporter counts. The
// rules are Bracha's in both modes; only the READY payload and a decode gate
// depend on the mode. A coded instance readies with the 32-byte tally key
// and delivers only once the key's fragments decode (see tryDecode): with
// 2f+1 READYs but fewer than k fragments it simply waits, the fragments
// being on the wire (see the totality argument in coded.go).
func (b *Broadcaster) maybeReadyAndDeliver(out []types.Message, in *instance, id types.InstanceID,
	body string, echoes, readies int) ([]types.Message, []Delivery) {
	if !in.readied && (echoes >= b.spec.Echo() || readies >= b.spec.Adopt()) {
		if echoes >= b.spec.Echo() {
			// The mark means "the echo quorum tripped this READY"; a READY
			// triggered by f+1 amplification is deliberately not charged
			// here — it measures contagion, not quorum assembly.
			b.tele.Observe(sim.PhaseRBCEchoQuorum, in.t0)
		}
		in.readied = true
		var ready types.Payload = &in.readyPayload
		if cs := in.coded; cs != nil {
			cs.readyPayload = types.RBCSumPayload{ID: id, Sum: body}
			ready = &cs.readyPayload
		} else {
			in.readyPayload = types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body}
		}
		out = types.AppendBroadcast(out, b.me, b.peers, ready)
	}
	if !in.readyQuorum && readies >= b.spec.Decide() {
		in.readyQuorum = true
		b.tele.Observe(sim.PhaseRBCReadyQuorum, in.t0)
	}
	if !in.delivered && readies >= b.spec.Decide() {
		if in.coded != nil {
			var ok bool
			if body, ok = b.tryDecode(in.coded, body); !ok {
				return out, nil
			}
		}
		in.delivered = true
		b.tele.Observe(sim.PhaseRBCDeliver, in.t0)
		b.deliv[0] = Delivery{ID: id, Body: body}
		return out, b.deliv[:1:1]
	}
	return out, nil
}

// Compact releases one instance's tallies and payloads if it is terminal
// (echoed, readied, delivered — it can never emit again), leaving only the
// delivered record. Reports whether compaction happened; non-terminal
// instances are left untouched so late echoes still amplify. Per-slot owners
// (the SMR log, ACS input dissemination) call this when a slot commits.
func (b *Broadcaster) Compact(id types.InstanceID) bool {
	if in, c := b.lookup(id); in != nil && in.terminal() {
		b.release(id, in, c)
		return true
	}
	return false
}

// PruneBelow compacts every terminal instance whose tag round is below the
// given round, returning how many it released. Round-tagged owners (the
// consensus core) call it on round entry with the same floor as the rest of
// the per-round state; roundless instances (Tag.Round == 0, the namespace
// the SMR/ACS layers use) are never touched — they are pruned per slot via
// Compact instead. Non-terminal instances below the floor stay live at full
// fidelity: they may still owe the network an echo or an amplification.
//
// A floor above the window's slides it there (see "Instance table" in the
// package doc); a lower one leaves the window where it is.
func (b *Broadcaster) PruneBelow(round int) int {
	released := 0
	if round > b.winBase {
		released = b.slide(round)
	}
	// order-free: each instance moves to its own cell or is released on its own
	for id, in := range b.instances {
		if id.Tag.Round == 0 || id.Tag.Round >= round || !in.terminal() {
			b.enter(id, in)
			continue
		}
		b.release(id, in, nil)
		released++
	}
	return released
}

// slide raises the window's floor to round. Every instance of a round below
// it leaves the window: a terminal one as a delivered record, a non-terminal
// one to the overflow map, still live. It returns how many became records.
func (b *Broadcaster) slide(round int) int {
	old := b.winBase
	b.winBase = round
	if b.win == nil {
		return 0
	}
	// round > old >= 1, so neither the difference nor old+rows overflows.
	rows := windowRounds
	if d := round - old; d < rows {
		rows = d
	}
	// Records of the rounds slid past go to rows (see "Instance table").
	b.rowTop = max(b.rowTop, min(old+rows-1, b.rowTop+windowRounds))
	np := len(b.peers)
	released := 0
	for r := old; r < old+rows; r++ {
		for s := types.Step1; s <= types.Step3; s++ {
			start := b.windowCell(r, s, 0)
			for pi, in := range b.win[start : start+np] {
				if in == nil {
					continue
				}
				b.win[start+pi] = nil
				b.winLive--
				id := types.InstanceID{Sender: b.peers[pi], Tag: types.Tag{Round: r, Step: s, Seq: b.winSeq}}
				if in.terminal() {
					b.markCompacted(id)
					released++
				} else {
					b.addOverflow(id, in)
				}
			}
		}
	}
	return released
}

// Instances returns the number of live (uncompacted) instances this
// broadcaster tracks — the full-fidelity state that dominates RBC memory.
// Under an owner that prunes, this stays bounded by the retained rounds (plus
// any non-terminal stragglers); Byzantine processes can create instances
// freely, so memory pressure is observable here.
func (b *Broadcaster) Instances() int { return b.winLive + len(b.instances) }

// Compacted returns how many instances have been released to delivered
// records (diagnostics; each record costs a map entry, not tallies and
// payloads).
func (b *Broadcaster) Compacted() int { return len(b.compacted) + b.rowRecords }

// compactedRecordBytes is the accounted cost of one delivered record: the
// 32-byte InstanceID key (sender + three tag ints) plus one word of map
// entry, a flat figure E12's residue table is denominated in, whether the
// record is a map key or a bit of rows. The counter tracks growth shape, not
// allocator detail.
const compactedRecordBytes = 40

// DigestBytes returns the bytes retained by the compact delivered records —
// the residue pruning deliberately keeps, one record per terminal instance.
// The checkpointing log retires its share with DropSeqBelow; a consensus
// instance's records live as long as the instance (experiment E12).
func (b *Broadcaster) DigestBytes() int { return b.Compacted() * compactedRecordBytes }

// DropSeqBelow releases every instance and delivered record in the
// roundless (sequence) namespace with Tag.Seq below seq, live or compacted,
// terminal or not, and returns how many it dropped. The bound becomes a
// watermark: later traffic for the released range is a silent no-op and
// never regrows state (without a watermark a late SEND would re-create a
// fresh instance and echo — visibly different from the silence a compacted
// record gives).
//
// This is a *protocol-level* release, stronger than the pruning contract:
// a dropped instance no longer answers Delivered, and a
// half-finished broadcast below the bound is abandoned. The caller must hold
// a checkpoint certificate covering the dropped range — a quorum's statement
// that the slots below seq are settled and any process still missing them
// will be served state transfer, not RBC catch-up (internal/ckpt).
func (b *Broadcaster) DropSeqBelow(seq int) int {
	if seq <= b.seqFloor {
		return 0
	}
	b.seqFloor = seq
	// The window and rows hold only round-tagged instances, which no drop
	// covers.
	before := len(b.instances) + len(b.compacted)
	maps.DeleteFunc(b.instances, func(id types.InstanceID, in *instance) bool {
		if !b.belowSeqFloor(id) {
			return false
		}
		if in.coded != nil {
			in.coded.retire()
		}
		return true
	})
	maps.DeleteFunc(b.compacted, func(id types.InstanceID, _ struct{}) bool { return b.belowSeqFloor(id) })
	return before - len(b.instances) - len(b.compacted)
}

func (b *Broadcaster) belowSeqFloor(id types.InstanceID) bool {
	return id.Tag.Round == 0 && id.Tag.Step == 0 && id.Tag.Seq < b.seqFloor
}

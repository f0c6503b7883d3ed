package rbc

// The plain-mode Broadcaster against a map-backed reference: every live
// instance in one map keyed by InstanceID, every delivered record in another,
// peer indices in a third. Scripts of SEND/ECHO/READY, own broadcasts,
// PruneBelow, Compact, DropSeqBelow and Delivered run through both, and every
// emitted message, delivery and counter must agree.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// mapBroadcaster is the reference: the plain Bracha state machine with all
// state in maps. Tallies count distinct peer indices per body, so a peer
// listed twice votes once, under its first index, and a non-peer never
// votes.
type mapBroadcaster struct {
	me        types.ProcessID
	peers     []types.ProcessID
	spec      quorum.Spec
	instances map[types.InstanceID]*mapInstance
	compacted map[types.InstanceID]struct{}
	peerIdx   map[types.ProcessID]int
	seqFloor  int
}

type mapInstance struct {
	echoed, readied, delivered bool
	echoes, readies            map[string]map[int]bool
}

func (in *mapInstance) terminal() bool { return in.echoed && in.readied && in.delivered }

func newMapBroadcaster(me types.ProcessID, peers []types.ProcessID, spec quorum.Spec) *mapBroadcaster {
	o := &mapBroadcaster{
		me: me, peers: peers, spec: spec,
		instances: map[types.InstanceID]*mapInstance{},
		compacted: map[types.InstanceID]struct{}{},
		peerIdx:   map[types.ProcessID]int{},
	}
	for i, p := range peers {
		if _, dup := o.peerIdx[p]; !dup {
			o.peerIdx[p] = i
		}
	}
	return o
}

func (o *mapBroadcaster) fanout(phase types.Kind, id types.InstanceID, body string) []types.Message {
	out := make([]types.Message, 0, len(o.peers))
	for _, p := range o.peers {
		out = append(out, types.Message{From: o.me, To: p, Payload: &types.RBCPayload{Phase: phase, ID: id, Body: body}})
	}
	return out
}

func (o *mapBroadcaster) broadcast(tag types.Tag, body string) []types.Message {
	return o.fanout(types.KindRBCSend, types.InstanceID{Sender: o.me, Tag: tag}, body)
}

func (o *mapBroadcaster) belowSeqFloor(id types.InstanceID) bool {
	return id.Tag.Round == 0 && id.Tag.Step == 0 && id.Tag.Seq < o.seqFloor
}

func (o *mapBroadcaster) inst(id types.InstanceID) *mapInstance {
	in := o.instances[id]
	if in == nil {
		in = &mapInstance{echoes: map[string]map[int]bool{}, readies: map[string]map[int]bool{}}
		o.instances[id] = in
	}
	return in
}

func (o *mapBroadcaster) handle(from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	if _, done := o.compacted[p.ID]; done || o.belowSeqFloor(p.ID) {
		return nil, nil
	}
	var out []types.Message
	switch p.Phase {
	case types.KindRBCSend:
		if from != p.ID.Sender {
			return nil, nil
		}
		in := o.inst(p.ID)
		if in.echoed {
			return nil, nil
		}
		in.echoed = true
		return o.fanout(types.KindRBCEcho, p.ID, p.Body), nil
	case types.KindRBCEcho, types.KindRBCReady:
		pi, ok := o.peerIdx[from]
		if !ok {
			return nil, nil
		}
		in := o.inst(p.ID)
		list := in.echoes
		if p.Phase == types.KindRBCReady {
			list = in.readies
		}
		if list[p.Body] == nil {
			list[p.Body] = map[int]bool{}
		}
		list[p.Body][pi] = true
		echoes, readies := len(in.echoes[p.Body]), len(in.readies[p.Body])
		if !in.readied && (echoes >= o.spec.Echo() || readies >= o.spec.Adopt()) {
			in.readied = true
			out = o.fanout(types.KindRBCReady, p.ID, p.Body)
		}
		if !in.delivered && readies >= o.spec.Decide() {
			in.delivered = true
			return out, []Delivery{{ID: p.ID, Body: p.Body}}
		}
		return out, nil
	}
	return nil, nil
}

func (o *mapBroadcaster) delivered(id types.InstanceID) bool {
	if _, done := o.compacted[id]; done {
		return true
	}
	in := o.instances[id]
	return in != nil && in.delivered
}

func (o *mapBroadcaster) compact(id types.InstanceID) bool {
	if in := o.instances[id]; in != nil && in.terminal() {
		o.compacted[id] = struct{}{}
		delete(o.instances, id)
		return true
	}
	return false
}

func (o *mapBroadcaster) pruneBelow(round int) int {
	released := 0
	for id, in := range o.instances {
		if id.Tag.Round != 0 && id.Tag.Round < round && in.terminal() {
			o.compacted[id] = struct{}{}
			delete(o.instances, id)
			released++
		}
	}
	return released
}

func (o *mapBroadcaster) dropSeqBelow(seq int) int {
	if seq <= o.seqFloor {
		return 0
	}
	o.seqFloor = seq
	dropped := 0
	for id := range o.instances {
		if o.belowSeqFloor(id) {
			delete(o.instances, id)
			dropped++
		}
	}
	for id := range o.compacted {
		if o.belowSeqFloor(id) {
			delete(o.compacted, id)
			dropped++
		}
	}
	return dropped
}

// The script format. A script is a byte string: a two-byte header picking
// the peer set and this process, then operations, each a kind byte followed
// by its operands. Every operand byte indexes a small palette (taken modulo
// its length), so any byte string is a valid script and the fuzzer mutates
// in a space where quorums actually form.
const (
	opHandle    = iota // from, phase, id, body
	opRun              // id, send?, #echoes, #readies, body: one instance driven by the peers in order
	opBroadcast        // round, step, seq, body: this process's own broadcast
	opPrune            // round
	opCompact          // id
	opDropSeq          // seq
	opDelivered        // id
	opKinds
)

// scriptPeerSets: two small clusters and one wider than a 64-bit bitset
// word. Peers are 1..n (quorum.Spec.CheckPeers), so a size names the set.
var scriptPeerSets = [][]types.ProcessID{
	types.Processes(4),
	types.Processes(7),
	types.Processes(70),
}

// scriptOutsiders extend a peer set's sender palette with processes that are
// not peers: an ordinary ID, the zero and a negative ID, and one far above
// any peer set.
var scriptOutsiders = []types.ProcessID{99, 0, -1, 1 << 20}

// Rounds are absolute so a script reads the same whatever the floor: 0..15
// covers a window's lower edge, last round and first overflow round for any
// floor up to 11, and the specials probe wrap-around.
var (
	scriptRounds = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, -1, math.MinInt, math.MaxInt, math.MaxInt - 1}
	scriptSteps  = []types.Step{types.Step1, types.Step2, types.Step3, 0, 4}
	scriptSeqs   = []int{5, 6, 0, 3, 7} // 5 is this process's consensus instance in the named cases
	scriptPhases = []types.Kind{types.KindRBCSend, types.KindRBCEcho, types.KindRBCReady, types.KindDecide}
	scriptBodies = []string{"a", "b", "c"}
)

// maxScriptOps bounds one script's length, keeping fuzz iterations fast.
const maxScriptOps = 4000

type scriptReader struct{ data []byte }

func (r *scriptReader) done() bool { return len(r.data) == 0 }

func (r *scriptReader) next(mod int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % mod
}

// scriptRun holds the two broadcasters a script drives and the context its
// failure messages need.
type scriptRun struct {
	t       *testing.T
	name    string
	got     *Broadcaster
	want    *mapBroadcaster
	senders []types.ProcessID
	op      int
}

func (s *scriptRun) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s: op %d: %s", s.name, s.op, fmt.Sprintf(format, args...))
}

func (s *scriptRun) readID(r *scriptReader) types.InstanceID {
	sender := s.senders[r.next(len(s.senders))]
	round := scriptRounds[r.next(len(scriptRounds))]
	step := scriptSteps[r.next(len(scriptSteps))]
	seq := scriptSeqs[r.next(len(scriptSeqs))]
	return types.InstanceID{Sender: sender, Tag: types.Tag{Round: round, Step: step, Seq: seq}}
}

func (s *scriptRun) checkMsgs(what string, got, want []types.Message) {
	s.t.Helper()
	if len(got) != len(want) {
		s.fail("%s: %d messages, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		gp, ok := got[i].Payload.(*types.RBCPayload)
		wp := want[i].Payload.(*types.RBCPayload)
		if !ok || got[i].From != want[i].From || got[i].To != want[i].To || *gp != *wp {
			s.fail("%s: message %d is %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

func (s *scriptRun) handle(from types.ProcessID, p *types.RBCPayload) {
	s.t.Helper()
	out, ds := s.got.Handle(from, p)
	wout, wds := s.want.handle(from, p)
	what := fmt.Sprintf("%v %v from %v", p.Phase, p.ID, from)
	s.checkMsgs(what, out, wout)
	if len(ds) != len(wds) || (len(ds) == 1 && ds[0] != wds[0]) {
		s.fail("%s: deliveries %v, oracle %v", what, ds, wds)
	}
}

func (s *scriptRun) checkCounters() {
	s.t.Helper()
	if g, w := s.got.Instances(), len(s.want.instances); g != w {
		s.fail("Instances() = %d, oracle %d", g, w)
	}
	if g, w := s.got.Compacted(), len(s.want.compacted); g != w {
		s.fail("Compacted() = %d, oracle %d", g, w)
	}
	if g, w := s.got.DigestBytes(), len(s.want.compacted)*compactedRecordBytes; g != w {
		s.fail("DigestBytes() = %d, oracle %d", g, w)
	}
}

// runScript decodes data and runs it against a fresh Broadcaster and oracle.
func runScript(t *testing.T, name string, data []byte) {
	t.Helper()
	r := &scriptReader{data: data}
	peers := scriptPeerSets[r.next(len(scriptPeerSets))]
	me := peers[r.next(len(peers))]
	spec := quorum.MustNew(len(peers), quorum.MaxByzantine(len(peers)))
	s := &scriptRun{
		t: t, name: name,
		got:     New(me, peers, spec),
		want:    newMapBroadcaster(me, peers, spec),
		senders: append(append([]types.ProcessID(nil), peers...), scriptOutsiders...),
	}
	seen := map[types.InstanceID]bool{}
	for ; !r.done() && s.op < maxScriptOps; s.op++ {
		switch r.next(opKinds) {
		case opHandle:
			from := s.senders[r.next(len(s.senders))]
			phase := scriptPhases[r.next(len(scriptPhases))]
			id := s.readID(r)
			seen[id] = true
			s.handle(from, &types.RBCPayload{Phase: phase, ID: id, Body: scriptBodies[r.next(len(scriptBodies))]})
		case opRun:
			id := s.readID(r)
			seen[id] = true
			send := r.next(2) == 1
			echoes, readies := r.next(len(peers)+1), r.next(len(peers)+1)
			body := scriptBodies[r.next(len(scriptBodies))]
			if send {
				s.handle(id.Sender, &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body})
			}
			for _, p := range peers[:echoes] {
				s.handle(p, &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: body})
			}
			for _, p := range peers[:readies] {
				s.handle(p, &types.RBCPayload{Phase: types.KindRBCReady, ID: id, Body: body})
			}
		case opBroadcast:
			tag := types.Tag{
				Round: scriptRounds[r.next(len(scriptRounds))],
				Step:  scriptSteps[r.next(len(scriptSteps))],
				Seq:   scriptSeqs[r.next(len(scriptSeqs))],
			}
			body := scriptBodies[r.next(len(scriptBodies))]
			s.checkMsgs(fmt.Sprintf("broadcast %v", tag), s.got.Broadcast(tag, body), s.want.broadcast(tag, body))
		case opPrune:
			round := scriptRounds[r.next(len(scriptRounds))]
			if g, w := s.got.PruneBelow(round), s.want.pruneBelow(round); g != w {
				s.fail("PruneBelow(%d) released %d, oracle %d", round, g, w)
			}
		case opCompact:
			id := s.readID(r)
			if g, w := s.got.Compact(id), s.want.compact(id); g != w {
				s.fail("Compact(%v) = %v, oracle %v", id, g, w)
			}
		case opDropSeq:
			seq := scriptSeqs[r.next(len(scriptSeqs))]
			if g, w := s.got.DropSeqBelow(seq), s.want.dropSeqBelow(seq); g != w {
				s.fail("DropSeqBelow(%d) dropped %d, oracle %d", seq, g, w)
			}
		case opDelivered:
			id := s.readID(r)
			if g, w := s.got.Delivered(id), s.want.delivered(id); g != w {
				s.fail("Delivered(%v) = %v, oracle %v", id, g, w)
			}
		}
		s.checkCounters()
	}
	for id := range seen {
		if g, w := s.got.Delivered(id), s.want.delivered(id); g != w {
			s.fail("final Delivered(%v) = %v, oracle %v", id, g, w)
		}
	}
}

// scriptWriter writes scripts by value; each operand must be in its palette.
type scriptWriter struct {
	data    []byte
	senders []types.ProcessID
}

func paletteIndex[T comparable](palette []T, v T) byte {
	for i, p := range palette {
		if p == v {
			return byte(i)
		}
	}
	panic(fmt.Sprintf("%v is not in the script palette %v", v, palette))
}

func newScript(peerSet int, me types.ProcessID) *scriptWriter {
	peers := scriptPeerSets[peerSet]
	b := &scriptWriter{senders: append(append([]types.ProcessID(nil), peers...), scriptOutsiders...)}
	b.data = []byte{byte(peerSet), paletteIndex(peers, me)}
	return b
}

func (b *scriptWriter) id(id types.InstanceID) *scriptWriter {
	b.data = append(b.data,
		paletteIndex(b.senders, id.Sender),
		paletteIndex(scriptRounds, id.Tag.Round),
		paletteIndex(scriptSteps, id.Tag.Step),
		paletteIndex(scriptSeqs, id.Tag.Seq))
	return b
}

func (b *scriptWriter) handle(from types.ProcessID, phase types.Kind, id types.InstanceID, body string) *scriptWriter {
	b.data = append(b.data, opHandle, paletteIndex(b.senders, from), paletteIndex(scriptPhases, phase))
	b.id(id)
	b.data = append(b.data, paletteIndex(scriptBodies, body))
	return b
}

// run drives id: the sender's SEND if send, then ECHOs from the first
// echoes peers and READYs from the first readies peers.
func (b *scriptWriter) run(id types.InstanceID, send bool, echoes, readies int, body string) *scriptWriter {
	b.data = append(b.data, opRun)
	b.id(id)
	s := byte(0)
	if send {
		s = 1
	}
	b.data = append(b.data, s, byte(echoes), byte(readies), paletteIndex(scriptBodies, body))
	return b
}

// full drives id to terminal: SEND, every echo, every ready.
func (b *scriptWriter) full(id types.InstanceID, peers int) *scriptWriter {
	return b.run(id, true, peers, peers, "a")
}

func (b *scriptWriter) broadcast(tag types.Tag, body string) *scriptWriter {
	b.data = append(b.data, opBroadcast,
		paletteIndex(scriptRounds, tag.Round), paletteIndex(scriptSteps, tag.Step),
		paletteIndex(scriptSeqs, tag.Seq), paletteIndex(scriptBodies, body))
	return b
}

func (b *scriptWriter) prune(round int) *scriptWriter {
	b.data = append(b.data, opPrune, paletteIndex(scriptRounds, round))
	return b
}

func (b *scriptWriter) compact(id types.InstanceID) *scriptWriter {
	b.data = append(b.data, opCompact)
	return b.id(id)
}

func (b *scriptWriter) drop(seq int) *scriptWriter {
	b.data = append(b.data, opDropSeq, paletteIndex(scriptSeqs, seq))
	return b
}

func (b *scriptWriter) delivered(id types.InstanceID) *scriptWriter {
	b.data = append(b.data, opDelivered)
	return b.id(id)
}

func rid(sender types.ProcessID, round int, step types.Step, seq int) types.InstanceID {
	return types.InstanceID{Sender: sender, Tag: types.Tag{Round: round, Step: step, Seq: seq}}
}

// oracleCases are the named scripts, each aimed at one edge of the round
// window (windowRounds rounds from the PruneBelow floor) over instance 5;
// testdata/fuzz/FuzzBroadcasterMatchesOracle holds the same bytes as the
// fuzzer's seed corpus.
func oracleCases() map[string][]byte {
	const own = 5
	base := 3
	last := base + windowRounds - 1
	cases := map[string][]byte{}

	// Instances at base−1, base, the last round and last+1, with the floor
	// raised one round at a time past all of them; late traffic after every
	// move.
	b := newScript(0, 2).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a").prune(base)
	for _, r := range []int{base - 1, base, last, last + 1} {
		for _, st := range []types.Step{types.Step1, types.Step3} {
			b.full(rid(1, r, st, own), 4).run(rid(3, r, st, own), true, 1, 1, "a")
		}
	}
	for r := base + 1; r <= last+2; r++ {
		b.prune(r)
		for _, lr := range []int{base - 1, base, last, last + 1} {
			b.handle(4, types.KindRBCEcho, rid(1, lr, types.Step1, own), "a").
				handle(4, types.KindRBCReady, rid(3, lr, types.Step3, own), "a").
				delivered(rid(1, lr, types.Step3, own))
		}
	}
	cases["span-edges"] = b.data

	// A floor jump longer than the span: everything in the old window is
	// released or moved to the overflow map at once, and rounds beyond the
	// old window's reach enter the new one.
	b = newScript(1, 1).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "b").prune(1)
	for r := 1; r <= 4; r++ {
		b.full(rid(2, r, types.Step2, own), 7).run(rid(5, r, types.Step2, own), true, 3, 0, "b")
	}
	b.run(rid(6, 13, types.Step1, own), true, 2, 0, "a").prune(12).
		run(rid(6, 13, types.Step1, own), false, 7, 7, "a").
		run(rid(5, 3, types.Step2, own), false, 7, 7, "b").prune(14).prune(15)
	cases["prune-jump-past-span"] = b.data

	// Floor jumps of every length up to the span, each over a window with a
	// terminal and a half-finished instance in every round.
	b = newScript(0, 2).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a")
	floor := 1
	for jump := 1; jump <= windowRounds; jump++ {
		for r := floor; r < floor+windowRounds; r++ {
			b.full(rid(1, r, types.Step3, own), 4).run(rid(4, r, types.Step1, own), true, 2, 0, "b")
		}
		floor += jump
		b.prune(floor).delivered(rid(1, floor, types.Step3, own))
	}
	cases["prune-jump-within-span"] = b.data

	// Another consensus instance's traffic never enters the window: it
	// lives, delivers, prunes and compacts through the overflow map.
	b = newScript(0, 1).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a").prune(2)
	for _, seq := range []int{6, 0, 7} {
		b.full(rid(2, 2, types.Step1, seq), 4).run(rid(3, 3, types.Step2, seq), true, 4, 2, "b")
	}
	b.prune(3).compact(rid(2, 2, types.Step1, 6)).prune(5).delivered(rid(2, 2, types.Step1, 0))
	cases["foreign-seq"] = b.data

	// Senders that are not peers hold no votes: their echoes and readies for
	// a peer's instance count toward no quorum, while their own instances,
	// driven by the peers, live in the overflow map and deliver.
	b = newScript(0, 2).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a")
	for _, x := range scriptOutsiders {
		b.handle(x, types.KindRBCEcho, rid(3, 1, types.Step2, own), "a").
			handle(x, types.KindRBCReady, rid(3, 1, types.Step2, own), "a").
			handle(x, types.KindRBCSend, rid(x, 1, types.Step1, own), "b").
			full(rid(x, 1, types.Step1, own), 4)
	}
	b.run(rid(3, 1, types.Step2, own), true, 2, 1, "a").delivered(rid(3, 1, types.Step2, own)).
		run(rid(3, 1, types.Step2, own), false, 0, 3, "a").prune(2).prune(3).
		delivered(rid(1<<20, 1, types.Step1, own))
	cases["non-peer-senders"] = b.data

	// A peer's repeated READY votes once and a non-peer's READY not at all,
	// while the non-peer's own instance, driven by the peers, delivers.
	b = newScript(0, 2).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a")
	b.full(rid(2, 1, types.Step1, own), 4).full(rid(99, 1, types.Step1, own), 4).
		run(rid(4, 2, types.Step1, own), true, 0, 0, "a").
		handle(2, types.KindRBCReady, rid(4, 2, types.Step1, own), "a").
		handle(2, types.KindRBCReady, rid(4, 2, types.Step1, own), "a").
		handle(99, types.KindRBCReady, rid(4, 2, types.Step1, own), "a").
		handle(3, types.KindRBCReady, rid(4, 2, types.Step1, own), "a").prune(3)
	cases["duplicate-and-non-peer"] = b.data

	// The peer index at its edges: the highest peer (n) broadcasting beside
	// senders far above n and below 1, whose instances deliver through the
	// overflow path.
	b = newScript(1, 7).broadcast(types.Tag{Round: 2, Step: types.Step1, Seq: own}, "a")
	b.full(rid(7, 2, types.Step1, own), 7).full(rid(1<<20, 2, types.Step1, own), 7).
		full(rid(-1, 2, types.Step1, own), 7).full(rid(3, 2, types.Step2, own), 7).
		prune(3).delivered(rid(7, 2, types.Step1, own)).delivered(rid(1<<20, 2, types.Step1, own))
	cases["sparse-peers"] = b.data

	// Totality below the floor: a half-finished instance slides out of the
	// window, stays live in the overflow map, and late echoes and readies
	// still make it ready and deliver; the next prune compacts it.
	b = newScript(0, 2).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a").
		run(rid(1, 1, types.Step1, own), true, 1, 0, "a").
		run(rid(3, 1, types.Step2, own), false, 0, 1, "b").prune(3).prune(4).
		run(rid(1, 1, types.Step1, own), false, 4, 0, "a").
		run(rid(1, 1, types.Step1, own), false, 0, 4, "a").
		run(rid(3, 1, types.Step2, own), true, 0, 4, "b").
		handle(1, types.KindRBCSend, rid(1, 1, types.Step1, own), "b").prune(5).prune(5)
	cases["totality-below-floor"] = b.data

	// Traffic that arrives before this process's first broadcast fixes the
	// instance, then joins it; and rounds the window can never index.
	b = newScript(0, 3).full(rid(1, 1, types.Step1, own), 4).run(rid(2, 2, types.Step1, own), true, 2, 0, "a").
		run(rid(4, 9, types.Step3, own), true, 2, 1, "b").
		broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a").
		run(rid(2, 2, types.Step1, own), false, 4, 4, "a").prune(2).prune(7).
		run(rid(4, 9, types.Step3, own), false, 4, 4, "b").prune(10)
	cases["traffic-before-first-broadcast"] = b.data
	b = newScript(1, 4).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a")
	for _, r := range []int{math.MinInt, -1, 0, math.MaxInt - 1, math.MaxInt} {
		for _, st := range []types.Step{0, types.Step1, 4} {
			b.full(rid(2, r, st, own), 7)
		}
	}
	b.prune(math.MinInt).prune(math.MaxInt-1).full(rid(3, math.MaxInt, types.Step2, own), 7).
		prune(math.MaxInt).delivered(rid(2, math.MaxInt-1, types.Step1, own)).
		handle(3, types.KindRBCEcho, rid(2, math.MaxInt, types.Step1, own), "a")
	cases["rounds-outside-window"] = b.data

	// The roundless namespace beside the window: drops leave round-tagged
	// instances alone, and compacted or dropped records stay silent.
	b = newScript(0, 2).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a").
		full(rid(1, 0, 0, 3), 4).full(rid(1, 0, 0, 5), 4).full(rid(1, 1, types.Step1, 3), 4).
		compact(rid(1, 0, 0, 5)).drop(5).drop(3).delivered(rid(1, 0, 0, 3)).
		handle(1, types.KindRBCSend, rid(1, 0, 0, 3), "a").full(rid(1, 0, 0, 6), 4).drop(7).prune(2)
	cases["drop-seq-beside-window"] = b.data

	// Compact on instances inside the window: a terminal one becomes a
	// record that answers late traffic with silence, a non-terminal one
	// stays.
	b = newScript(0, 4).broadcast(types.Tag{Round: 2, Step: types.Step2, Seq: own}, "b").
		full(rid(1, 2, types.Step2, own), 4).run(rid(2, 2, types.Step2, own), true, 4, 1, "a").
		compact(rid(1, 2, types.Step2, own)).compact(rid(2, 2, types.Step2, own)).
		full(rid(1, 2, types.Step2, own), 4).delivered(rid(1, 2, types.Step2, own)).
		run(rid(2, 2, types.Step2, own), false, 0, 4, "a").compact(rid(2, 2, types.Step2, own)).
		handle(3, types.KindRBCReady, rid(2, 2, types.Step2, own), "a").prune(3)
	cases["compact-in-window"] = b.data

	// Votes from peers past the first bitset word count once each.
	b = newScript(2, 66).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a").
		full(rid(66, 1, types.Step1, own), 70).run(rid(70, 1, types.Step2, own), true, 70, 20, "b").
		handle(70, types.KindRBCReady, rid(70, 1, types.Step2, own), "b").
		handle(70, types.KindRBCReady, rid(70, 1, types.Step2, own), "b").prune(2)
	cases["wide-peer-set"] = b.data

	// A READY for a body before any ECHO of it, in the window and in the
	// overflow map: f+1 readies amplify, echoes for the body arrive after,
	// and a second body is readied first while the first gathers echoes.
	b = newScript(0, 2).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a")
	for _, id := range []types.InstanceID{rid(1, 1, types.Step2, own), rid(3, 0, 0, 3)} {
		b.handle(3, types.KindRBCReady, id, "b").
			run(id, false, 2, 0, "a").
			handle(4, types.KindRBCReady, id, "b").
			run(id, false, 4, 0, "b").
			handle(1, types.KindRBCReady, id, "b").
			run(id, true, 4, 4, "a").delivered(id)
	}
	b.prune(2).compact(rid(3, 0, 0, 3))
	cases["ready-before-echo"] = b.data

	// An equivocating sender: three bodies of one instance each gather echoes
	// and readies, partly and then fully, from the same peers; the sender's
	// second and third SENDs are ignored.
	b = newScript(1, 3).broadcast(types.Tag{Round: 1, Step: types.Step1, Seq: own}, "a")
	for _, id := range []types.InstanceID{rid(1, 1, types.Step1, own), rid(1, 9, types.Step3, own)} {
		b.run(id, true, 2, 1, "a").run(id, true, 3, 2, "b").run(id, true, 4, 2, "c").
			run(id, false, 7, 7, "c").run(id, false, 7, 7, "a").run(id, false, 7, 7, "b").
			delivered(id).compact(id)
	}
	b.prune(3).prune(10)
	cases["equivocating-sender"] = b.data
	return cases
}

func TestBroadcasterMatchesOracle(t *testing.T) {
	for name, data := range oracleCases() {
		runScript(t, name, data)
	}
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 2+rng.Intn(1200))
		rng.Read(data)
		runScript(t, fmt.Sprintf("random-%d", trial), data)
	}
}

// TestOracleCorpusCurrent: the checked-in seed corpus is the named cases'
// bytes, so an edited case cannot leave a stale seed behind.
func TestOracleCorpusCurrent(t *testing.T) {
	checkCorpus(t, "FuzzBroadcasterMatchesOracle", oracleCases())
}

// checkCorpus fails for every named case whose file in fuzz's checked-in
// seed corpus is not the case's bytes, printing what to rewrite it as.
func checkCorpus(t *testing.T, fuzz string, cases map[string][]byte) {
	t.Helper()
	for name, data := range cases {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", fuzz, name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(data)); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

func FuzzBroadcasterMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runScript(t, "fuzz", data)
	})
}

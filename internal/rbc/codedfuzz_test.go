package rbc

// The coded handlers at their hostile boundary: scripts of genuine and
// mutated fragments (index, TotalLen, one byte of Sums or Frag) and checksum
// readies (genuine or junk keys), mixed with Compact, PruneBelow and
// DropSeqBelow. Besides genuine dispersals, a script may send poisoned ones:
// one parity fragment swapped for garbage with its digest recomputed, so
// every fragment verifies on its own but the set is no codeword. Whatever
// the script, nothing panics, an instance delivers at most once and only a
// body dispersed under its ID (never a poisoned one), a genuine dispersal
// heard from every peer delivers, traffic below the drop watermark or for a
// compacted instance is silent and never raises Instances(), and Delivered
// answers for exactly the deliveries not dropped.

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

const (
	cfFrag      = iota // sender, tag, body, index, from, mutation, two operand bytes
	cfSum              // sender, tag, key, from
	cfRun              // sender, tag, body, send?, #echoes, #readies: one genuine dispersal driven by the peers in order
	cfCompact          // sender, tag
	cfPrune            // round
	cfDrop             // seq
	cfDelivered        // sender, tag
	cfKinds
)

// Fragment mutations: the one field a hostile relay changes.
const (
	mutNone = iota
	mutIndex
	mutTotalLen
	mutSums
	mutFrag
	mutKinds
)

// The coded script palettes: two cluster sizes (k = 2 and 3), roundless and
// round-tagged instances, bodies whose lengths are and are not multiples of
// k, and rounds and seqs around every tag's. A body operand indexes
// codedBodies and then their poisoned dispersals, so it ranges over
// 2·len(codedBodies).
var (
	codedPeerSets = [][]types.ProcessID{types.Processes(4), types.Processes(7)}
	codedOutsider = types.ProcessID(99)
	codedTags     = []types.Tag{{Seq: 1}, {Seq: 2}, {Seq: 3},
		{Round: 1, Step: types.Step1, Seq: 9}, {Round: 2, Step: types.Step2, Seq: 9}}
	codedBodies = []string{"", "a", "coded body", strings.Repeat("0123456789", 7)}
	codedRounds = []int{0, 1, 2, 3}
	codedSeqs   = []int{0, 1, 2, 3, 4}
	// codedJunkKeys follow the genuine keys in the cfSum key palette: a
	// well-formed key no dispersal has, and one of the wrong length.
	codedJunkKeys = []string{strings.Repeat("\xff", sumLen), "junk"}
)

// dispersalKey is the tally key of a dispersal, SHA-256(uvarint(TotalLen) ‖
// Sums), computed here independently of the broadcaster.
func dispersalKey(p *types.RBCFragPayload) string {
	d := sha256.Sum256(append(binary.AppendUvarint(nil, uint64(p.TotalLen)), p.Sums...))
	return string(d[:])
}

// codedScript is one script's broadcaster and the record the assertions
// check it against.
type codedScript struct {
	t       *testing.T
	name    string
	op      int
	b       *Broadcaster
	peers   []types.ProcessID
	spec    quorum.Spec
	senders map[types.ProcessID]*Broadcaster
	frags   map[[3]int][]*types.RBCFragPayload // (sender index, tag, body) → fragments by index

	dispersed map[types.InstanceID]map[string]bool
	delivered map[types.InstanceID]bool // ever, dropped or not
	dropped   map[types.InstanceID]bool
	compacted map[types.InstanceID]bool
	seqFloor  int

	// tr, when non-nil, receives the script's transcript (see record).
	tr io.Writer
}

func (s *codedScript) fail(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s: op %d: %s", s.name, s.op, fmt.Sprintf(format, args...))
}

// dispersal returns the fragments of body under (sender, tag), recording a
// genuine body as dispersed under that ID. A body operand past codedBodies
// names the poisoned dispersal of body − len(codedBodies).
func (s *codedScript) dispersal(sender, tag, body int) []*types.RBCFragPayload {
	if body < len(codedBodies) {
		id := types.InstanceID{Sender: s.peers[sender], Tag: codedTags[tag]}
		if s.dispersed[id] == nil {
			s.dispersed[id] = map[string]bool{}
		}
		s.dispersed[id][codedBodies[body]] = true
	}
	return s.fragments(sender, tag, body)
}

// fragments returns the fragments of a dispersal, as dispersal names it.
func (s *codedScript) fragments(sender, tag, body int) []*types.RBCFragPayload {
	k := [3]int{sender, tag, body}
	if fs, ok := s.frags[k]; ok {
		return fs
	}
	fs := make([]*types.RBCFragPayload, len(s.peers))
	if body >= len(codedBodies) {
		for i, g := range s.fragments(sender, tag, body-len(codedBodies)) {
			q := *g
			fs[i] = &q
		}
		last := len(fs) - 1
		garbage := strings.Repeat("\xa5", len(fs[last].Frag))
		d := sha256.Sum256([]byte(garbage))
		sums := fs[last].Sums[:last*sumLen] + string(d[:])
		for _, q := range fs {
			q.Sums = sums
		}
		fs[last].Frag = garbage
		s.frags[k] = fs
		return fs
	}
	p := s.peers[sender]
	src := s.senders[p]
	if src == nil {
		src = NewCoded(p, s.peers, s.spec)
		s.senders[p] = src
	}
	msgs := src.Broadcast(codedTags[tag], codedBodies[body])
	s.record("disperse", nil, msgs, nil)
	for _, m := range msgs {
		fp := m.Payload.(*types.RBCFragPayload)
		fs[fp.Index] = fp
	}
	s.frags[k] = fs
	return fs
}

// record writes one call's outcome to the transcript, if the script keeps
// one: the call and its result or operand v (if any), every message by
// field, never by pointer, every delivery, and the broadcaster's instance
// and record counts after the call.
func (s *codedScript) record(what string, v any, out []types.Message, ds []Delivery) {
	if s.tr == nil {
		return
	}
	id := func(id types.InstanceID) string {
		return fmt.Sprintf("%d/%d/%d/%d", id.Sender, id.Tag.Round, id.Tag.Step, id.Tag.Seq)
	}
	if v != nil {
		what = fmt.Sprintf("%s %v", what, v)
	}
	fmt.Fprintf(s.tr, "op %d %s: %d msgs %d delivs %d live %d records\n",
		s.op, what, len(out), len(ds), s.b.Instances(), s.b.Compacted())
	for _, m := range out {
		switch p := m.Payload.(type) {
		case *types.RBCFragPayload:
			fmt.Fprintf(s.tr, "%d>%d frag %s %d %d %x %x\n", m.From, m.To, id(p.ID), p.Index, p.TotalLen, p.Sums, p.Frag)
		case *types.RBCSumPayload:
			fmt.Fprintf(s.tr, "%d>%d sum %s %x\n", m.From, m.To, id(p.ID), p.Sum)
		default:
			fmt.Fprintf(s.tr, "%d>%d %T\n", m.From, m.To, p)
		}
	}
	for _, d := range ds {
		fmt.Fprintf(s.tr, "deliver %s %x\n", id(d.ID), d.Body)
	}
}

// below reports whether id is under the drop watermark.
func (s *codedScript) below(id types.InstanceID) bool {
	return id.Tag.Round == 0 && id.Tag.Step == 0 && id.Tag.Seq < s.seqFloor
}

// silent reports whether traffic for id must be silent: id is under the
// drop watermark or was compacted.
func (s *codedScript) silent(id types.InstanceID) bool { return s.below(id) || s.compacted[id] }

// check applies the traffic assertions to one handler call for id.
func (s *codedScript) check(id types.InstanceID, before int, out []types.Message, ds []Delivery) {
	s.t.Helper()
	if s.silent(id) && (len(out) != 0 || len(ds) != 0 || s.b.Instances() > before) {
		s.fail("%v is below the watermark or compacted, yet answered %d messages, %d deliveries, %d → %d instances",
			id, len(out), len(ds), before, s.b.Instances())
	}
	for _, d := range ds {
		if d.ID != id {
			s.fail("traffic for %v delivered %v", id, d.ID)
		}
		if s.delivered[id] {
			s.fail("%v delivered twice", id)
		}
		if !s.dispersed[id][d.Body] {
			s.fail("%v delivered %d bytes never dispersed under it", id, len(d.Body))
		}
		s.delivered[id] = true
	}
}

func (s *codedScript) frag(from types.ProcessID, p *types.RBCFragPayload) {
	s.t.Helper()
	before := s.b.Instances()
	out, ds := s.b.AppendHandleFrag(nil, from, p)
	s.record("frag from", int(from), out, ds)
	s.check(p.ID, before, out, ds)
}

func (s *codedScript) sum(from types.ProcessID, p *types.RBCSumPayload) {
	s.t.Helper()
	before := s.b.Instances()
	out, ds := s.b.AppendHandleSum(nil, from, p)
	s.record("sum from", int(from), out, ds)
	s.check(p.ID, before, out, ds)
}

func (s *codedScript) checkDelivered(id types.InstanceID) {
	s.t.Helper()
	g, w := s.b.Delivered(id), s.delivered[id] && !s.dropped[id]
	s.record("delivered", g, nil, nil)
	if g != w {
		s.fail("Delivered(%v) = %v, want %v", id, g, w)
	}
}

// runCodedScript decodes data and runs it against a fresh coded broadcaster,
// writing its transcript to tr if tr is non-nil.
func runCodedScript(t *testing.T, name string, data []byte, tr io.Writer) {
	t.Helper()
	r := &scriptReader{data: data}
	peers := codedPeerSets[r.next(len(codedPeerSets))]
	me := r.next(len(peers))
	spec := quorum.MustNew(len(peers), quorum.MaxByzantine(len(peers)))
	s := &codedScript{
		t: t, name: name, b: NewCoded(peers[me], peers, spec),
		peers: peers, spec: spec,
		senders:   map[types.ProcessID]*Broadcaster{},
		frags:     map[[3]int][]*types.RBCFragPayload{},
		dispersed: map[types.InstanceID]map[string]bool{},
		delivered: map[types.InstanceID]bool{},
		dropped:   map[types.InstanceID]bool{},
		compacted: map[types.InstanceID]bool{},
		tr:        tr,
	}
	from := append(append([]types.ProcessID(nil), peers...), codedOutsider)
	readID := func() (int, int, types.InstanceID) {
		sender, tag := r.next(len(peers)), r.next(len(codedTags))
		return sender, tag, types.InstanceID{Sender: peers[sender], Tag: codedTags[tag]}
	}
	for ; !r.done() && s.op < maxScriptOps; s.op++ {
		switch r.next(cfKinds) {
		case cfFrag:
			sender, tag, _ := readID()
			fs := s.dispersal(sender, tag, r.next(2*len(codedBodies)))
			p := *fs[r.next(len(fs))]
			src := from[r.next(len(from))]
			mut, hi, lo := r.next(mutKinds), r.next(256), r.next(256)
			switch mut {
			case mutIndex:
				p.Index = (p.Index+2+hi)%(len(peers)+2) - 1 // −1 … n: off both ends too
			case mutTotalLen:
				delta := hi%4 - 2 // −2, −1, +1, +2
				if delta >= 0 {
					delta++
				}
				p.TotalLen += delta
			case mutSums:
				b := []byte(p.Sums)
				b[(hi<<8|lo)%len(b)] ^= 1
				p.Sums = string(b)
			case mutFrag:
				b := []byte(p.Frag)
				b[(hi<<8|lo)%len(b)] ^= 1
				p.Frag = string(b)
			}
			s.frag(src, &p)
		case cfSum:
			sender, tag, id := readID()
			key := r.next(2*len(codedBodies) + len(codedJunkKeys))
			sum := ""
			if key < 2*len(codedBodies) {
				sum = dispersalKey(s.dispersal(sender, tag, key)[0])
			} else {
				sum = codedJunkKeys[key-2*len(codedBodies)]
			}
			s.sum(from[r.next(len(from))], &types.RBCSumPayload{ID: id, Sum: sum})
		case cfRun:
			sender, tag, id := readID()
			body := r.next(2 * len(codedBodies))
			fs := s.dispersal(sender, tag, body)
			send := r.next(2) == 1
			echoes, readies := r.next(len(peers)+1), r.next(len(peers)+1)
			if send {
				s.frag(id.Sender, fs[me])
			}
			for j := 0; j < echoes; j++ {
				s.frag(peers[j], fs[j])
			}
			for j := 0; j < readies; j++ {
				s.sum(peers[j], &types.RBCSumPayload{ID: id, Sum: dispersalKey(fs[0])})
			}
			// Every peer's verified fragment and READY for a codeword:
			// whatever came before, the instance has delivered (if not this
			// body, another one first).
			if body < len(codedBodies) && echoes == len(peers) && readies == len(peers) && !s.below(id) && !s.b.Delivered(id) {
				s.fail("a genuine dispersal heard from every peer left %v undelivered", id)
			}
		case cfCompact:
			_, _, id := readID()
			compacted := s.b.Compact(id)
			s.record("compact", compacted, nil, nil)
			if compacted {
				if !s.delivered[id] {
					s.fail("Compact(%v) released an undelivered instance", id)
				}
				s.compacted[id] = true
			}
		case cfPrune:
			released := s.b.PruneBelow(codedRounds[r.next(len(codedRounds))])
			s.record("prune", released, nil, nil)
		case cfDrop:
			seq := codedSeqs[r.next(len(codedSeqs))]
			if seq > s.seqFloor {
				s.seqFloor = seq
			}
			dropped := s.b.DropSeqBelow(seq)
			s.record("drop", dropped, nil, nil)
			for id := range s.delivered {
				s.dropped[id] = s.below(id)
			}
		case cfDelivered:
			_, _, id := readID()
			s.checkDelivered(id)
		}
	}
	// In a fixed order, so the transcript is a function of the script.
	ids := slices.SortedFunc(maps.Keys(s.dispersed), func(a, b types.InstanceID) int {
		return cmp.Or(cmp.Compare(a.Sender, b.Sender), cmp.Compare(a.Tag.Round, b.Tag.Round),
			cmp.Compare(a.Tag.Step, b.Tag.Step), cmp.Compare(a.Tag.Seq, b.Tag.Seq))
	})
	for _, id := range ids {
		s.checkDelivered(id)
	}
}

// codedScriptWriter writes coded scripts by value; each operand must be in
// its palette.
type codedScriptWriter struct {
	data  []byte
	peers int
}

func newCodedScript(peerSet, me int) *codedScriptWriter {
	return &codedScriptWriter{data: []byte{byte(peerSet), byte(me)}, peers: len(codedPeerSets[peerSet])}
}

func (w *codedScriptWriter) frag(sender, tag, body, index, from, mut, operand int) *codedScriptWriter {
	w.data = append(w.data, cfFrag, byte(sender), byte(tag), byte(body), byte(index), byte(from), byte(mut),
		byte(operand>>8), byte(operand))
	return w
}

func (w *codedScriptWriter) sum(sender, tag, key, from int) *codedScriptWriter {
	w.data = append(w.data, cfSum, byte(sender), byte(tag), byte(key), byte(from))
	return w
}

func (w *codedScriptWriter) run(sender, tag, body int, send bool, echoes, readies int) *codedScriptWriter {
	s := byte(0)
	if send {
		s = 1
	}
	w.data = append(w.data, cfRun, byte(sender), byte(tag), byte(body), s, byte(echoes), byte(readies))
	return w
}

// full drives a genuine dispersal to delivery everywhere it is heard.
func (w *codedScriptWriter) full(sender, tag, body int) *codedScriptWriter {
	return w.run(sender, tag, body, true, w.peers, w.peers)
}

func (w *codedScriptWriter) op(kind int, operands ...int) *codedScriptWriter {
	w.data = append(w.data, byte(kind))
	for _, o := range operands {
		w.data = append(w.data, byte(o))
	}
	return w
}

// codedCases are the named coded scripts; testdata/fuzz/FuzzCodedBroadcaster
// holds the same bytes as the fuzzer's seed corpus. Tags index codedTags
// (0–2 roundless seqs 1–3, 3–4 rounds 1–2), bodies codedBodies.
func codedCases() map[string][]byte {
	cases := map[string][]byte{}

	// Every mutation of every field, each before the genuine fragment, then
	// the genuine dispersal delivers once.
	w := newCodedScript(0, 1)
	for _, mut := range []int{mutIndex, mutTotalLen, mutSums, mutFrag, mutNone} {
		for idx := 0; idx < 4; idx++ {
			w.frag(0, 0, 2, idx, idx, mut, 1+idx*37)
		}
	}
	cases["mutated-fragments"] = w.full(0, 0, 2).full(0, 0, 2).data

	// TotalLen one past the body within the same shard length: the padded
	// body re-encodes to the same shards, but only the genuine key's readies
	// arrive, so only the genuine body delivers.
	w = newCodedScript(1, 2)
	for idx := 0; idx < 7; idx++ {
		w.frag(3, 1, 2, idx, idx, mutTotalLen, 2<<8)
	}
	cases["total-len-plus-one"] = w.full(3, 1, 2).data

	// Junk and wrong-length keys alongside genuine ones; an equivocating
	// sender's two bodies under one ID.
	w = newCodedScript(0, 0)
	for from := 0; from < 5; from++ {
		w.sum(1, 3, len(codedBodies), from).sum(1, 3, len(codedBodies)+1, from)
	}
	cases["junk-keys-and-equivocation"] = w.run(1, 3, 1, true, 4, 0).run(1, 3, 3, false, 4, 4).
		run(1, 3, 1, false, 0, 4).op(cfDelivered, 1, 3).data

	// Compact, prune and drop around live traffic: late fragments and
	// readies for compacted and dropped instances stay silent.
	w = newCodedScript(0, 3)
	for tag := range codedTags {
		w.full(0, tag, 3)
	}
	w.run(2, 1, 0, false, 2, 0).run(2, 4, 0, false, 2, 0).
		op(cfCompact, 0, 0).op(cfCompact, 2, 1).op(cfPrune, 2).op(cfDrop, 3).
		full(0, 0, 3).full(0, 1, 3).full(0, 3, 3).run(2, 1, 0, true, 4, 4).
		op(cfPrune, 3).op(cfDrop, 4).op(cfDrop, 1).full(0, 2, 1)
	for tag := range codedTags {
		w.op(cfDelivered, 0, tag)
	}
	cases["compact-prune-drop"] = w.data

	// Poisoned dispersals: every fragment verifies, none delivers, whether
	// the first k fragments a ready quorum finds are the data shards (under
	// two IDs) or parity shards that include the swapped one (a third), and
	// a genuine dispersal under each ID still delivers after them.
	w = newCodedScript(1, 0)
	poisoned := len(codedBodies) + 3
	w.run(1, 0, poisoned, true, 7, 7).run(2, 3, poisoned, false, 3, 7).run(3, 4, poisoned, false, 0, 7)
	for _, idx := range []int{4, 5, 6} {
		w.frag(3, 4, poisoned, idx, idx, mutNone, 0)
	}
	cases["poisoned-dispersals"] = w.full(1, 0, 3).full(2, 3, 3).full(3, 4, 3).data
	return cases
}

func TestCodedBroadcasterScripts(t *testing.T) {
	for name, data := range codedCases() {
		runCodedScript(t, name, data, nil)
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 2+rng.Intn(600))
		rng.Read(data)
		runCodedScript(t, fmt.Sprintf("random-%d", trial), data, nil)
	}
}

func TestCodedCorpusCurrent(t *testing.T) {
	checkCorpus(t, "FuzzCodedBroadcaster", codedCases())
}

func FuzzCodedBroadcaster(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runCodedScript(t, "fuzz", data, nil)
	})
}

// TestCodedScriptTranscripts pins what the coded handlers emit, not only the
// properties the scripts assert: one SHA-256 over the transcripts (see
// record) of the named scripts and 500 seeded random ones, each run at both
// cluster sizes. Any change to a message field, a delivery, or when
// instances are created and released moves the digest.
func TestCodedScriptTranscripts(t *testing.T) {
	const want = "00be07bd6a16b496ff7c9b4db73cd0602bef7f9a646050f6b9cf823dc788f129"
	cases := codedCases()
	names := slices.Sorted(maps.Keys(cases))
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 2+rng.Intn(600))
		rng.Read(data)
		name := fmt.Sprintf("random-%d", trial)
		cases[name] = data
		names = append(names, name)
	}
	h := sha256.New()
	for _, name := range names {
		for size := range codedPeerSets {
			data := slices.Clone(cases[name])
			data[0] = byte(size)
			fmt.Fprintf(h, "script %s size %d\n", name, size)
			runCodedScript(t, name, data, h)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("coded script transcripts hash to %s, want %s", got, want)
	}
}

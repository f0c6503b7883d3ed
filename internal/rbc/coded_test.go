package rbc

import (
	"crypto/sha256"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// newCodedCluster is newCluster with coded broadcasters.
func newCodedCluster(t *testing.T, n, f int, correct []types.ProcessID) *cluster {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	c := &cluster{
		t:         t,
		spec:      spec,
		correct:   make(map[types.ProcessID]*Broadcaster),
		delivered: make(map[types.ProcessID][]Delivery),
	}
	for _, p := range correct {
		c.correct[p] = NewCoded(p, peers, spec)
	}
	return c
}

// codedAt returns the coded state of id's live instance at b, or nil.
func codedAt(b *Broadcaster, id types.InstanceID) *codedState {
	if in, _ := b.lookup(id); in != nil {
		return in.coded
	}
	return nil
}

// pumpAll drains the queue routing every payload kind — plain RBC phases,
// fragments, and checksum readies — so mixed-mode scenarios exercise the
// silence contracts.
func (c *cluster) pumpAll() {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		b, ok := c.correct[m.To]
		if !ok {
			continue
		}
		var out []types.Message
		var ds []Delivery
		switch p := m.Payload.(type) {
		case *types.RBCPayload:
			out, ds = b.Handle(m.From, p)
		case *types.RBCFragPayload:
			out, ds = b.AppendHandleFrag(nil, m.From, p)
		case *types.RBCSumPayload:
			out, ds = b.AppendHandleSum(nil, m.From, p)
		}
		c.enqueue(out)
		c.delivered[m.To] = append(c.delivered[m.To], ds...)
	}
}

func TestCodedDataShards(t *testing.T) {
	tests := []struct{ n, f, want int }{
		{4, 1, 2},  // optimal: n−2f = f+1 = 2
		{7, 2, 3},  // optimal: 3
		{16, 5, 6}, // optimal: 6
		{3, 0, 1},  // f=0: Echo()−f = ⌈(n+1)/2⌉ = 2 < n−2f = 3? Echo(3,0)=2 ⇒ min(3,2)=2
		{1, 0, 1},  // singleton
		{6, 1, 3},  // n=3f+3: Echo()=4, Echo()−f=3 < n−2f=4 ⇒ 3
		{5, 1, 3},  // n=3f+2: Echo()=4, Echo()−f=3 = n−2f=3
	}
	for _, tt := range tests {
		spec := quorum.MustNew(tt.n, tt.f)
		got := CodedDataShards(spec)
		// The stated bounds must always hold, whatever the example values.
		if got < 1 || got > tt.n-2*tt.f || got > spec.Echo()-tt.f {
			t.Errorf("n=%d f=%d: k=%d violates bounds", tt.n, tt.f, got)
		}
		if tt.n == 3*tt.f+1 && got != tt.f+1 {
			t.Errorf("n=%d f=%d (optimal): k=%d, want f+1=%d", tt.n, tt.f, got, tt.f+1)
		}
	}
	// Fix the one example the comment table hand-computes loosely.
	if got := CodedDataShards(quorum.MustNew(3, 0)); got != 2 {
		t.Errorf("n=3 f=0: k=%d, want 2", got)
	}
}

func TestCodedCorrectSenderAllDeliver(t *testing.T) {
	bodies := []string{
		"", // empty body still frames and delivers
		"short",
		strings.Repeat("a medium body with structure ", 10),
		strings.Repeat("\x00\xFF", 1000),
	}
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {6, 1}, {3, 0}, {1, 0}} {
		for bi, body := range bodies {
			c := newCodedCluster(t, tc.n, tc.f, types.Processes(tc.n))
			tag := types.Tag{Seq: bi + 1}
			c.enqueue(c.correct[1].Broadcast(tag, body))
			c.pumpAll()
			for p, b := range c.correct {
				ds := c.delivered[p]
				if len(ds) != 1 || ds[0].Body != body {
					t.Fatalf("n=%d f=%d body %d: %v delivered %d bodies (want %q)", tc.n, tc.f, bi, p, len(ds), body)
				}
				id := types.InstanceID{Sender: 1, Tag: tag}
				if !b.Delivered(id) {
					t.Fatalf("n=%d f=%d: %v Delivered() false after delivery", tc.n, tc.f, p)
				}
			}
		}
	}
}

func TestCodedValidityWithSilentByzantine(t *testing.T) {
	n, f := 7, 2
	correct := types.Processes(n)[:n-f]
	c := newCodedCluster(t, n, f, correct)
	body := strings.Repeat("silent-byzantine", 20)
	c.enqueue(c.correct[1].Broadcast(types.Tag{Seq: 1}, body))
	c.pumpAll()
	for _, p := range correct {
		if len(c.delivered[p]) != 1 || c.delivered[p][0].Body != body {
			t.Fatalf("%v delivered %v", p, c.delivered[p])
		}
	}
}

// TestCodedBandwidthBeatsUncoded pins the point of the whole exercise: for a
// body much larger than the checksum vector, total fragment payload bytes on
// the wire are far below the uncoded echo storm's body bytes.
func TestCodedBandwidthBeatsUncoded(t *testing.T) {
	n, f := 16, 5
	body := strings.Repeat("x", 64<<10)

	uncoded := newCluster(t, n, f, types.Processes(n))
	uncoded.enqueue(uncoded.correct[1].Broadcast(types.Tag{Seq: 1}, body))
	uncodedBytes := 0
	for len(uncoded.queue) > 0 {
		m := uncoded.queue[0]
		uncoded.queue = uncoded.queue[1:]
		if p, ok := m.Payload.(*types.RBCPayload); ok {
			uncodedBytes += len(p.Body)
			out, ds := uncoded.correct[m.To].Handle(m.From, p)
			uncoded.enqueue(out)
			uncoded.delivered[m.To] = append(uncoded.delivered[m.To], ds...)
		}
	}

	coded := newCodedCluster(t, n, f, types.Processes(n))
	coded.enqueue(coded.correct[1].Broadcast(types.Tag{Seq: 1}, body))
	codedBytes := 0
	for len(coded.queue) > 0 {
		m := coded.queue[0]
		coded.queue = coded.queue[1:]
		b := coded.correct[m.To]
		var out []types.Message
		var ds []Delivery
		switch p := m.Payload.(type) {
		case *types.RBCFragPayload:
			codedBytes += len(p.Frag) + len(p.Sums)
			out, ds = b.AppendHandleFrag(nil, m.From, p)
		case *types.RBCSumPayload:
			codedBytes += len(p.Sum)
			out, ds = b.AppendHandleSum(nil, m.From, p)
		}
		coded.enqueue(out)
		coded.delivered[m.To] = append(coded.delivered[m.To], ds...)
	}

	for p := range coded.correct {
		if len(coded.delivered[p]) != 1 || coded.delivered[p][0].Body != body {
			t.Fatalf("%v: coded delivery missing", p)
		}
	}
	if codedBytes*3 > uncodedBytes {
		t.Errorf("coded %d bytes vs uncoded %d: want ≥3× reduction", codedBytes, uncodedBytes)
	}
}

// TestCodedEquivocatingSenderCannotSplit: the Byzantine sender disperses two
// different bodies to disjoint halves. At most one key can reach the echo
// quorum, so correct processes deliver at most one body, and all the same.
func TestCodedEquivocatingSenderCannotSplit(t *testing.T) {
	n, f := 4, 1
	correct := []types.ProcessID{1, 2, 3}
	c := newCodedCluster(t, n, f, correct)
	spec := quorum.MustNew(n, f)
	liar := NewCoded(4, types.Processes(n), spec)

	msgsA := liar.Broadcast(types.Tag{Seq: 1}, "body-A")
	msgsB := liar.Broadcast(types.Tag{Seq: 1}, "body-B")
	// A to p1 and p2, B to p3 (per-peer dispersal: pick each target's frag).
	for _, m := range msgsA {
		if m.To == 1 || m.To == 2 {
			c.enqueue([]types.Message{m})
		}
	}
	for _, m := range msgsB {
		if m.To == 3 {
			c.enqueue([]types.Message{m})
		}
	}
	c.pumpAll()
	bodies := c.uniqueBodies()
	if len(bodies) > 1 {
		t.Fatalf("equivocation split deliveries: %v", bodies)
	}
	for _, ds := range c.delivered {
		if len(ds) > 1 {
			t.Fatalf("process delivered twice: %v", ds)
		}
	}
}

// TestCodedWrongChecksumFragmentsIgnored: fragments whose bytes do not match
// their claimed digest entry are byte-identical silence — no state, no votes.
func TestCodedWrongChecksumFragmentsIgnored(t *testing.T) {
	n, f := 4, 1
	c := newCodedCluster(t, n, f, types.Processes(n))
	sender := c.correct[1]
	msgs := sender.Broadcast(types.Tag{Seq: 1}, "checksum-test-body")

	// Corrupt the fragment bytes of every dispersal to p2 (digest left
	// intact): p2 must neither adopt nor vote.
	for i, m := range msgs {
		p := m.Payload.(*types.RBCFragPayload)
		if m.To != 2 {
			continue
		}
		bad := *p
		bad.Frag = strings.Repeat("!", len(p.Frag))
		msgs[i].Payload = &bad
	}
	target := c.correct[2]
	for _, m := range msgs {
		if m.To != 2 {
			continue
		}
		out, ds := target.AppendHandleFrag(nil, m.From, m.Payload.(*types.RBCFragPayload))
		if len(out) != 0 || len(ds) != 0 {
			t.Fatalf("corrupted fragment produced output: %v %v", out, ds)
		}
	}
	if target.Instances() != 0 {
		t.Fatalf("corrupted fragments grew state: %d instances", target.Instances())
	}

	// Wrong shape is equally silent: a digest vector sized for another n.
	p := msgs[0].Payload.(*types.RBCFragPayload)
	alien := *p
	alien.Sums = p.Sums + strings.Repeat("\x00", sumLen)
	if out, ds := target.AppendHandleFrag(nil, 1, &alien); len(out) != 0 || len(ds) != 0 || target.Instances() != 0 {
		t.Fatal("wrong-shape fragment produced output or state")
	}
}

// TestCodedLiveInstanceStillChecksFragments: once an instance exists, only
// this process's own echo payload — the one it built from a dispersal it
// had checked — skips the fragment check. A tampered fragment, an index
// past the code and a tampered copy of the own echo all stay silent and
// store nothing; the own echo itself is stored, and the dispersal still
// delivers its body.
func TestCodedLiveInstanceStillChecksFragments(t *testing.T) {
	n, f := 4, 1
	c := newCodedCluster(t, n, f, types.Processes(n))
	id := types.InstanceID{Sender: 1, Tag: types.Tag{Seq: 1}}
	const body = "live-instance-check-body"
	msgs := c.correct[1].Broadcast(id.Tag, body)
	target := c.correct[2]
	frag := func(to types.ProcessID) *types.RBCFragPayload {
		for _, m := range msgs {
			if m.To == to {
				return m.Payload.(*types.RBCFragPayload)
			}
		}
		t.Fatalf("no dispersal to %v", to)
		return nil
	}
	echo, _ := target.AppendHandleFrag(nil, 1, frag(2))
	if len(echo) != n {
		t.Fatalf("dispersal to p2 produced %d echoes, want %d", len(echo), n)
	}
	own := echo[0].Payload.(*types.RBCFragPayload)
	set := func() *fragSet { return codedAt(target, id).set(dispersalKey(own)) }

	tampered := *frag(3)
	tampered.Frag = strings.Repeat("!", len(tampered.Frag))
	outside := *frag(3)
	outside.Index = n + 5
	ownCopy := *own
	ownCopy.Frag = strings.Repeat("?", len(own.Frag))
	for _, tt := range []struct {
		name string
		from types.ProcessID
		p    *types.RBCFragPayload
	}{
		{"tampered peer fragment", 3, &tampered},
		{"index past the code", 3, &outside},
		{"tampered copy of the own echo", 2, &ownCopy},
	} {
		if out, ds := target.AppendHandleFrag(nil, tt.from, tt.p); len(out) != 0 || len(ds) != 0 {
			t.Fatalf("%s produced %d messages, %d deliveries", tt.name, len(out), len(ds))
		}
		if s := set(); s != nil && s.have != 0 {
			t.Fatalf("%s was stored: %d fragments held", tt.name, s.have)
		}
	}
	target.AppendHandleFrag(nil, 2, own)
	if s := set(); s == nil || s.have != 1 || s.frags[1] != own.Frag {
		t.Fatal("p2's own echo coming back was not stored")
	}

	c.enqueue(msgs)
	c.pumpAll()
	if len(c.delivered) != n {
		t.Fatalf("%d processes delivered, want %d", len(c.delivered), n)
	}
	for p, ds := range c.delivered {
		if len(ds) != 1 || ds[0].Body != body {
			t.Errorf("p%v delivered %v, want one %q", p, ds, body)
		}
	}
}

// TestCodedDuplicateFragmentsCountOnce: one peer repeating its fragment echo
// casts one vote; a peer echoing under someone else's index casts none.
func TestCodedDuplicateFragmentsCountOnce(t *testing.T) {
	n, f := 4, 1
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	sender := NewCoded(1, peers, spec)
	target := NewCoded(2, peers, spec)

	msgs := sender.Broadcast(types.Tag{Seq: 1}, "duplicate-fragments")
	// Deliver p3's fragment to the target as if echoed by p3, three times:
	// the echo tally must stay at one supporter.
	var frag3 *types.RBCFragPayload
	for _, m := range msgs {
		if p := m.Payload.(*types.RBCFragPayload); p.Index == 2 {
			frag3 = p
		}
	}
	if frag3 == nil {
		t.Fatal("no fragment for index 2")
	}
	for i := 0; i < 3; i++ {
		target.AppendHandleFrag(nil, 3, frag3)
	}
	id := types.InstanceID{Sender: 1, Tag: types.Tag{Seq: 1}}
	ci := codedAt(target, id)
	if ci == nil {
		t.Fatal("no coded instance")
	}
	if tallies := target.instances[id].tallies; len(tallies) != 1 || tallies[0].echoes != 1 {
		t.Fatalf("duplicate echoes counted: %+v", tallies)
	}
	if got := ci.set(target.internKey(ci, frag3.TotalLen, frag3.Sums)).have; got != 1 {
		t.Fatalf("stored %d fragments, want 1", got)
	}
	// p4 echoing p3's fragment (an index not its own): no vote, no storage.
	target.AppendHandleFrag(nil, 4, frag3)
	if tallies := target.instances[id].tallies; tallies[0].echoes != 1 {
		t.Fatalf("foreign-index echo voted: %+v", tallies)
	}
}

// TestCodedCompactedAndDroppedSilence: fragment and checksum traffic for
// compacted or dropped instances is byte-identical silence, exactly like the
// plain phases.
func TestCodedCompactedAndDroppedSilence(t *testing.T) {
	n, f := 4, 1
	c := newCodedCluster(t, n, f, types.Processes(n))
	tag := types.Tag{Seq: 5}
	id := types.InstanceID{Sender: 1, Tag: tag}
	c.enqueue(c.correct[1].Broadcast(tag, "compact-me"))
	c.pumpAll()

	target := c.correct[2]
	if !target.Compact(id) {
		t.Fatal("terminal coded instance refused to compact")
	}
	// Replay the dispersal and a ready at the compacted instance: silence.
	replay := c.correct[1].Broadcast(tag, "compact-me")
	for _, m := range replay {
		if m.To != 2 {
			continue
		}
		out, ds := target.AppendHandleFrag(nil, m.From, m.Payload.(*types.RBCFragPayload))
		if len(out) != 0 || len(ds) != 0 {
			t.Fatalf("compacted instance answered a fragment: %v %v", out, ds)
		}
	}
	sum := strings.Repeat("s", sumLen)
	if out, ds := target.AppendHandleSum(nil, 3, &types.RBCSumPayload{ID: id, Sum: sum}); len(out) != 0 || len(ds) != 0 {
		t.Fatal("compacted instance answered a checksum ready")
	}
	if !target.Delivered(id) {
		t.Fatal("compaction lost the delivered record")
	}

	// Dropped watermark: state gone entirely, traffic below it silent.
	dropID := types.InstanceID{Sender: 1, Tag: types.Tag{Seq: 3}}
	target.DropSeqBelow(6)
	if out, ds := target.AppendHandleSum(nil, 3, &types.RBCSumPayload{ID: dropID, Sum: sum}); len(out) != 0 || len(ds) != 0 {
		t.Fatal("dropped instance answered")
	}
	for _, m := range c.correct[1].Broadcast(types.Tag{Seq: 3}, "below-watermark") {
		if m.To != 2 {
			continue
		}
		out, ds := target.AppendHandleFrag(nil, m.From, m.Payload.(*types.RBCFragPayload))
		if len(out) != 0 || len(ds) != 0 {
			t.Fatal("dropped instance answered a fragment")
		}
	}
	if target.Instances() != 0 {
		t.Fatalf("watermark traffic regrew state: %d instances", target.Instances())
	}
}

// TestCodedPoisonedKeyNeverDelivers: a sender whose digest vector is not a
// consistent codeword (fragment digests that verify individually but do not
// lie on one polynomial) reaches the ready stage but can never deliver — and
// the verdict is reached without panics and is permanent.
func TestCodedPoisonedKeyNeverDelivers(t *testing.T) {
	n, f := 4, 1
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	correct := []types.ProcessID{1, 2, 3}
	c := newCodedCluster(t, n, f, correct)
	liar := NewCoded(4, peers, spec)

	// Start from a genuine dispersal and swap one *parity* fragment for
	// garbage, recomputing its digest so fragValid passes: every fragment
	// verifies in isolation, but the set is not a codeword.
	msgs := liar.Broadcast(types.Tag{Seq: 1}, "poisoned-codeword-body")
	frags := make([]*types.RBCFragPayload, n)
	for _, m := range msgs {
		p := m.Payload.(*types.RBCFragPayload)
		frags[p.Index] = p
	}
	k := CodedDataShards(spec)
	evil := strings.Repeat("Z", len(frags[n-1].Frag))
	evilDigest := sha256.Sum256([]byte(evil))
	sums := []byte(frags[0].Sums)
	copy(sums[(n-1)*sumLen:], evilDigest[:])
	poisonedSums := string(sums)
	for i := range frags {
		fp := *frags[i]
		fp.Sums = poisonedSums
		if i == n-1 {
			fp.Frag = evil
		}
		frags[i] = &fp
	}
	_ = k
	// Disperse the poisoned fragments to the three correct processes.
	for i, to := range correct {
		c.enqueue([]types.Message{{From: 4, To: to, Payload: frags[i]}})
	}
	c.pumpAll()
	for p, ds := range c.delivered {
		if len(ds) != 0 {
			t.Fatalf("%v delivered from a poisoned dispersal: %v", p, ds)
		}
	}
	// Force the decode path directly: give p1 the evil parity fragment as
	// p4's echo, then readies from everyone. Still no delivery, ever.
	target := c.correct[1]
	target.AppendHandleFrag(nil, 4, frags[3])
	id := types.InstanceID{Sender: 4, Tag: types.Tag{Seq: 1}}
	ci := codedAt(target, id)
	if ci == nil {
		t.Fatal("no instance state")
	}
	key := target.internKey(ci, frags[0].TotalLen, poisonedSums)
	for _, from := range peers {
		if out, ds := target.AppendHandleSum(nil, from, &types.RBCSumPayload{ID: id, Sum: key}); len(ds) != 0 {
			t.Fatalf("poisoned key delivered: %v %v", out, ds)
		}
	}
	set := ci.set(key)
	if set == nil || !set.poisoned {
		t.Fatalf("decode verdict not poisoned: %+v", set)
	}
}

// TestCodedDecodeVerdictIndependentOfHeldSet: the decode verdict is a
// function of the dispersal's Sums alone, never of which k fragments a
// process happens to hold. An honest dispersal delivers the identical body
// from data-only, parity-only and mixed subsets; a dispersal with one parity
// shard swapped (its digest recomputed, so every fragment verifies on its
// own) is poisoned whether or not the decoder holds the swapped shard. A
// decoder that skipped the re-encode when its k fragments are all systematic
// would deliver the poisoned data-only case while the others never deliver,
// breaking totality. Shards are ~5.5 KiB, well past one 32-byte vector block.
func TestCodedDecodeVerdictIndependentOfHeldSet(t *testing.T) {
	n, f := 16, 5
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	if k := CodedDataShards(spec); k != 6 {
		t.Fatalf("k = %d, want 6 (the subsets below are sized for it)", k)
	}
	body := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(body)
	tag := types.Tag{Seq: 1}
	id := types.InstanceID{Sender: 1, Tag: tag}

	honest := make([]*types.RBCFragPayload, n)
	for _, m := range NewCoded(1, peers, spec).Broadcast(tag, string(body)) {
		p := m.Payload.(*types.RBCFragPayload)
		honest[p.Index] = p
	}
	const swapped = 15 // the last parity shard
	evil := []byte(honest[swapped].Frag)
	evil[len(evil)/2] ^= 0x5A
	evilDigest := sha256.Sum256(evil)
	sums := []byte(honest[0].Sums)
	copy(sums[swapped*sumLen:], evilDigest[:])
	poisoned := make([]*types.RBCFragPayload, n)
	for i, p := range honest {
		q := *p
		q.Sums = string(sums)
		if i == swapped {
			q.Frag = string(evil)
		}
		poisoned[i] = &q
	}

	// decode hands a fresh process exactly the held fragments, as echoes
	// from their owners, then a ready quorum; it returns the deliveries and
	// the key's fragment set.
	decode := func(frags []*types.RBCFragPayload, held []int) ([]Delivery, *fragSet) {
		target := NewCoded(types.ProcessID(n), peers, spec)
		var got []Delivery
		for _, i := range held {
			_, ds := target.AppendHandleFrag(nil, peers[i], frags[i])
			got = append(got, ds...)
		}
		ci := codedAt(target, id)
		key := target.internKey(ci, frags[0].TotalLen, frags[0].Sums)
		for _, from := range peers[:spec.Decide()] {
			_, ds := target.AppendHandleSum(nil, from, &types.RBCSumPayload{ID: id, Sum: key})
			got = append(got, ds...)
		}
		return got, ci.set(key)
	}

	for _, tc := range []struct {
		name string
		held []int
	}{
		{"data-only", []int{0, 1, 2, 3, 4, 5}},
		{"parity-only", []int{10, 11, 12, 13, 14, 15}},
		{"mixed-holding-swapped", []int{0, 2, 4, 11, 13, 15}},
		{"mixed-without-swapped", []int{1, 3, 5, 6, 8, 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, set := decode(honest, tc.held)
			if len(got) != 1 || got[0].Body != string(body) {
				t.Fatalf("honest dispersal: %d deliveries, want the body once", len(got))
			}
			if set.have != len(tc.held) {
				t.Fatalf("decoder held %d fragments, want exactly %v", set.have, tc.held)
			}
			got, set = decode(poisoned, tc.held)
			if len(got) != 0 {
				t.Fatalf("poisoned dispersal delivered %d bodies", len(got))
			}
			if set == nil || !set.poisoned {
				t.Fatal("poisoned dispersal's key not poisoned")
			}
		})
	}
}

// TestCodedDecodeBufferReuse: one broadcaster decodes a 32 KiB body, poisons
// a dispersal, then decodes a shorter body, all through the same reused
// encode/gather/decode buffers. The first delivered body must be intact
// afterwards, and the poisoned key must still refuse to deliver once a
// successful decode has overwritten the buffers its verdict came from.
func TestCodedDecodeBufferReuse(t *testing.T) {
	n, f := 16, 5
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	target := NewCoded(types.ProcessID(n), peers, spec)
	rng := rand.New(rand.NewSource(7))

	// disperse returns sender 1's fragments of body under seq, indexed by
	// shard; a non-negative swap replaces that shard with garbage and
	// recomputes its digest, so every fragment verifies but the set is not
	// a codeword.
	disperse := func(seq int, body []byte, swap int) []*types.RBCFragPayload {
		frags := make([]*types.RBCFragPayload, n)
		for _, m := range NewCoded(1, peers, spec).Broadcast(types.Tag{Seq: seq}, string(body)) {
			p := m.Payload.(*types.RBCFragPayload)
			frags[p.Index] = p
		}
		if swap < 0 {
			return frags
		}
		evil := []byte(strings.Repeat("Z", len(frags[swap].Frag)))
		digest := sha256.Sum256(evil)
		sums := []byte(frags[0].Sums)
		copy(sums[swap*sumLen:], digest[:])
		for i, p := range frags {
			q := *p
			q.Sums = string(sums)
			if i == swap {
				q.Frag = string(evil)
			}
			frags[i] = &q
		}
		return frags
	}
	// feed hands target the held fragments as their owners' echoes, then a
	// ready quorum, and returns the deliveries and the key's fragment set.
	feed := func(frags []*types.RBCFragPayload, held []int) ([]Delivery, *fragSet) {
		var got []Delivery
		for _, i := range held {
			_, ds := target.AppendHandleFrag(nil, peers[i], frags[i])
			got = append(got, ds...)
		}
		id := frags[0].ID
		key := target.internKey(codedAt(target, id), frags[0].TotalLen, frags[0].Sums)
		for _, from := range peers[:spec.Decide()] {
			_, ds := target.AppendHandleSum(nil, from, &types.RBCSumPayload{ID: id, Sum: key})
			got = append(got, ds...)
		}
		return got, codedAt(target, id).set(key)
	}

	long := make([]byte, 32<<10)
	rng.Read(long)
	wantLong := string(long)
	first, _ := feed(disperse(1, long, -1), []int{10, 11, 12, 13, 14, 15})
	if len(first) != 1 || first[0].Body != wantLong {
		t.Fatalf("long body: %d deliveries, want it once", len(first))
	}

	poisoned := disperse(2, long[:20<<10], 15)
	if ds, set := feed(poisoned, []int{0, 1, 2, 3, 4, 5}); len(ds) != 0 || set == nil || !set.poisoned {
		t.Fatalf("poisoned dispersal: %d deliveries, set %+v", len(ds), set)
	}

	short := make([]byte, 5<<10+3)
	rng.Read(short)
	second, _ := feed(disperse(3, short, -1), []int{0, 2, 4, 11, 13, 15})
	if len(second) != 1 || second[0].Body != string(short) {
		t.Fatalf("short body: %d deliveries, want it once", len(second))
	}

	if first[0].Body != wantLong {
		t.Fatal("the first delivered body changed after a later decode reused the buffers")
	}
	if ds, set := feed(poisoned, []int{6, 7, 8, 9, 10, 11, 12, 13, 14, 15}); len(ds) != 0 || !set.poisoned {
		t.Fatalf("poisoned key after buffer reuse: %d deliveries, poisoned %v", len(ds), set.poisoned)
	}
}

// TestCodedMixedModeSilence: plain phases at a coded broadcaster and
// fragments at a plain broadcaster are both byte-identical silence.
func TestCodedMixedModeSilence(t *testing.T) {
	n, f := 4, 1
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	coded := NewCoded(1, peers, spec)
	plain := New(2, peers, spec)
	id := types.InstanceID{Sender: 3, Tag: types.Tag{Seq: 1}}

	if out, ds := coded.Handle(3, &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: "b"}); len(out) != 0 || len(ds) != 0 {
		t.Fatal("coded broadcaster answered a plain SEND")
	}
	if coded.Instances() != 0 {
		t.Fatal("plain SEND grew coded state")
	}

	frag := strings.Repeat("f", 4)
	d := sha256.Sum256([]byte(frag))
	sums := strings.Repeat(string(d[:]), n)
	fp := &types.RBCFragPayload{ID: id, Index: 0, TotalLen: 4, Sums: sums, Frag: frag}
	if out, ds := plain.AppendHandleFrag(nil, 3, fp); len(out) != 0 || len(ds) != 0 {
		t.Fatal("plain broadcaster answered a fragment")
	}
	if out, ds := plain.AppendHandleSum(nil, 3, &types.RBCSumPayload{ID: id, Sum: string(d[:])}); len(out) != 0 || len(ds) != 0 {
		t.Fatal("plain broadcaster answered a checksum ready")
	}
	if plain.Instances() != 0 {
		t.Fatal("coded traffic grew plain state")
	}
}

// TestCodedReadyAmplificationTotality: a process that saw no echoes at all
// must still ready (f+1 readies) and deliver once it has k fragments and
// 2f+1 readies — the totality path.
func TestCodedReadyAmplificationTotality(t *testing.T) {
	n, f := 7, 2
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	sender := NewCoded(1, peers, spec)
	straggler := NewCoded(7, peers, spec)

	body := strings.Repeat("totality", 50)
	msgs := sender.Broadcast(types.Tag{Seq: 1}, body)
	frags := make([]*types.RBCFragPayload, n)
	for _, m := range msgs {
		p := m.Payload.(*types.RBCFragPayload)
		frags[p.Index] = p
	}
	id := types.InstanceID{Sender: 1, Tag: types.Tag{Seq: 1}}
	key := func() string {
		c := straggler.newInstance(id, nil).coded
		return straggler.internKey(c, frags[0].TotalLen, frags[0].Sums)
	}()

	// f+1 readies: the straggler must emit its own ready despite zero echoes.
	var out []types.Message
	for _, from := range []types.ProcessID{2, 3} {
		out, _ = straggler.AppendHandleSum(nil, from, &types.RBCSumPayload{ID: id, Sum: key})
		if len(out) != 0 {
			t.Fatal("ready too early")
		}
	}
	out, _ = straggler.AppendHandleSum(nil, 4, &types.RBCSumPayload{ID: id, Sum: key})
	sawReady := false
	for _, m := range out {
		if p, ok := m.Payload.(*types.RBCSumPayload); ok && p.Sum == key {
			sawReady = true
		}
	}
	if !sawReady {
		t.Fatal("f+1 readies did not amplify")
	}
	// 2f+1 readies, but fragments still missing: no delivery yet.
	_, ds := straggler.AppendHandleSum(nil, 5, &types.RBCSumPayload{ID: id, Sum: key})
	_, ds2 := straggler.AppendHandleSum(nil, 6, &types.RBCSumPayload{ID: id, Sum: key})
	if len(ds) != 0 || len(ds2) != 0 {
		t.Fatal("delivered without fragments")
	}
	// Fragment echoes trickle in; at k verified fragments the pending ready
	// quorum converts into a delivery.
	k := CodedDataShards(spec)
	var got []Delivery
	for i := 0; i < k; i++ {
		_, ds := straggler.AppendHandleFrag(nil, types.ProcessID(i+2), frags[i+1])
		got = append(got, ds...)
	}
	if len(got) != 1 || got[0].Body != body {
		t.Fatalf("straggler delivered %v, want body", got)
	}
}

// TestCodedFirstDispersalWins: a second dispersal from the sender (another
// body) cannot re-echo — mirrors the first-SEND-wins rule.
func TestCodedFirstDispersalWins(t *testing.T) {
	n, f := 4, 1
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	sender := NewCoded(1, peers, spec)
	target := NewCoded(2, peers, spec)

	first := sender.Broadcast(types.Tag{Seq: 1}, "first-body")
	second := sender.Broadcast(types.Tag{Seq: 1}, "second-body")
	var fragFirst, fragSecond *types.RBCFragPayload
	for _, m := range first {
		if m.To == 2 {
			fragFirst = m.Payload.(*types.RBCFragPayload)
		}
	}
	for _, m := range second {
		if m.To == 2 {
			fragSecond = m.Payload.(*types.RBCFragPayload)
		}
	}
	out, _ := target.AppendHandleFrag(nil, 1, fragFirst)
	if len(out) != n {
		t.Fatalf("first dispersal echoed %d messages, want %d", len(out), n)
	}
	out, _ = target.AppendHandleFrag(nil, 1, fragSecond)
	// The second dispersal still casts the sender's echo vote for its own
	// slot if the index matches the sender — but index here is target's, so
	// nothing at all may be emitted.
	if len(out) != 0 {
		t.Fatalf("second dispersal emitted %d messages", len(out))
	}
}

// TestCodedTableOperations pins PruneBelow, Compact and DropSeqBelow on a
// coded broadcaster, the table operations it shares with the plain one
// (smr's coded dissemination plane compacts and drops by sequence):
// PruneBelow releases terminal round-tagged instances below the floor and
// leaves roundless ones to their per-slot owners, Compact refuses a
// non-terminal instance, and DropSeqBelow counts live instances — terminal
// or not — and delivered records alike. Instances, Compacted and Delivered
// are checked after every step.
func TestCodedTableOperations(t *testing.T) {
	n, f := 4, 1
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	c := newCodedCluster(t, n, f, peers)
	b := c.correct[2]
	r1 := types.Tag{Round: 1, Step: types.Step1, Seq: 1}
	r2 := types.Tag{Round: 2, Step: types.Step1, Seq: 1}
	s3, s4 := types.Tag{Seq: 3}, types.Tag{Seq: 4}
	for _, tag := range []types.Tag{r1, r2, s3, s4} {
		c.enqueue(c.correct[1].Broadcast(tag, "body "+tag.String()))
	}
	c.pumpAll()

	// Two half-finished instances: one echo vote each (peer 4's own
	// fragment), never this process's own dispersal, so never echoed.
	half := func(tag types.Tag) types.InstanceID {
		t.Helper()
		for _, m := range NewCoded(3, peers, spec).Broadcast(tag, "half") {
			if p := m.Payload.(*types.RBCFragPayload); p.Index == 3 {
				if out, ds := b.AppendHandleFrag(nil, 4, p); len(out) != 0 || len(ds) != 0 {
					t.Fatalf("one echo vote emitted %d messages, %d deliveries", len(out), len(ds))
				}
				return p.ID
			}
		}
		t.Fatal("no fragment for index 3")
		return types.InstanceID{}
	}
	h1 := half(types.Tag{Round: 1, Step: types.Step2, Seq: 1})
	h2 := half(types.Tag{Seq: 2})
	id := func(tag types.Tag) types.InstanceID { return types.InstanceID{Sender: 1, Tag: tag} }

	check := func(step string, live, records int, delivered, undelivered []types.InstanceID) {
		t.Helper()
		if b.Instances() != live || b.Compacted() != records {
			t.Fatalf("%s: live/compacted = %d/%d, want %d/%d", step, b.Instances(), b.Compacted(), live, records)
		}
		for _, x := range delivered {
			if !b.Delivered(x) {
				t.Fatalf("%s: %v not Delivered", step, x)
			}
		}
		for _, x := range undelivered {
			if b.Delivered(x) {
				t.Fatalf("%s: %v Delivered", step, x)
			}
		}
	}
	all := []types.InstanceID{id(r1), id(r2), id(s3), id(s4)}
	check("start", 6, 0, all, []types.InstanceID{h1, h2})

	if b.Compact(h1) || b.Compact(h2) {
		t.Fatal("Compact released a non-terminal coded instance")
	}
	check("compact non-terminal", 6, 0, all, []types.InstanceID{h1, h2})

	if got := b.PruneBelow(2); got != 1 {
		t.Fatalf("PruneBelow(2) released %d, want 1 (round 1's terminal instance)", got)
	}
	check("prune 2", 5, 1, all, []types.InstanceID{h1, h2})
	if got := b.PruneBelow(100); got != 1 {
		t.Fatalf("PruneBelow(100) released %d, want 1 (round 2's terminal instance)", got)
	}
	check("prune 100", 4, 2, all, []types.InstanceID{h1, h2})

	if !b.Compact(id(s3)) {
		t.Fatal("Compact refused a terminal roundless coded instance")
	}
	check("compact s3", 3, 3, all, []types.InstanceID{h1, h2})

	// Below 5: s3's record, s4 live and terminal, h2 live and half-finished.
	if got := b.DropSeqBelow(5); got != 3 {
		t.Fatalf("DropSeqBelow(5) dropped %d, want 3", got)
	}
	check("drop 5", 1, 2, []types.InstanceID{id(r1), id(r2)}, []types.InstanceID{id(s3), id(s4), h1, h2})

	// Traffic below the watermark never regrows state.
	half(types.Tag{Seq: 2})
	for _, m := range c.correct[1].Broadcast(s4, "late") {
		if m.To == 2 {
			b.AppendHandleFrag(nil, 1, m.Payload.(*types.RBCFragPayload))
		}
	}
	check("late traffic", 1, 2, []types.InstanceID{id(r1), id(r2)}, []types.InstanceID{id(s3), id(s4), h1, h2})
}

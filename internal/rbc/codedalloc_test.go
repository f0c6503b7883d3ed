package rbc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

// codedCycle is how many instances the allocation pins below measure at
// once: a whole number of every block and chunk a coded broadcaster carves
// from at n=16 and n=4 (instances, coded states and fragment tables come in
// blocks of four; the tally bitsets in chunks of 3·n tallies, 48 at n=16
// and 12 at n=4, one tally per key), so the count is exact, not a floor.
const codedCycle = 48

// TestCodedInstanceAllocations pins what a coded instance costs at each
// process: the blocks it draws from, its tally key, its delivered body, and
// the sender's dispersal (one payload slice, one string of fragments, one
// Sums string). An honest instance holds its one key and fragment set inline
// and leaves the keys and sets maps nil; only a second distinct key (here an
// equivocating sender's) creates them. Compact clears a released instance's
// fragment table and body, which share chunks and blocks with live
// instances. The counts are exact; a race-detector build only logs them.
func TestCodedInstanceAllocations(t *testing.T) {
	t.Run("honest-n16", func(t *testing.T) {
		// Per cycle of 48 instances: 3 allocations per dispersal; at each of
		// the 16 processes one key and one body per instance, a quarter each
		// of an instance block, a state block and a table chunk, and one
		// bitset chunk. (48·3 + 16·(48·2.75 + 1)) / (48·16) = 2.96.
		const want = 2.96
		const n, f = 16, 5
		c := newAllocCluster(n, f)
		body := strings.Repeat("honest dispersal ", 2048/17)
		seq := 0
		run := func() {
			seq++
			c.run(types.Tag{Seq: seq}, body)
			c.drop(seq + 1)
		}
		for range codedCycle {
			run() // size the reused buffers and reach a block boundary
		}
		got := mallocs(func() {
			for range codedCycle {
				run()
			}
		}) / (codedCycle * n)
		t.Logf("%.2f allocations per process per honest coded instance at n=%d", got, n)
		if !raceEnabled && fmt.Sprintf("%.2f", got) != fmt.Sprintf("%.2f", want) {
			t.Errorf("%.2f allocations per process per instance, want %.2f", got, want)
		}

		seq++
		id := types.InstanceID{Sender: 1, Tag: types.Tag{Seq: seq}}
		c.run(id.Tag, body)
		b := c.procs[2]
		cs := codedAt(b, id)
		if cs == nil {
			t.Fatal("no live instance")
		}
		if cs.keys != nil || cs.sets != nil {
			t.Fatalf("an honest instance made its maps: keys %v, sets %v", cs.keys != nil, cs.sets != nil)
		}
		frags := cs.first.frags
		if cs.first.have != n || cs.first.body != body {
			t.Fatalf("an honest instance holds %d fragments and a %d-byte body, want %d and %d",
				cs.first.have, len(cs.first.body), n, len(body))
		}
		if !b.Compact(id) {
			t.Fatal("a delivered honest instance did not compact")
		}
		if held := heldFragments(frags); held != 0 || cs.first.body != "" {
			t.Fatalf("a compacted instance still holds %d fragments and a %d-byte body", held, len(cs.first.body))
		}
	})

	t.Run("equivocation-n4", func(t *testing.T) {
		// Per instance at the target: an honest instance's key, body and
		// quarter blocks (2.75) and two tallies' share of a 12-tally bitset
		// chunk (1/6); then, for the second key, its string, its fragment set
		// and a quarter table chunk, the two maps at two allocations each (a
		// header and one group), and the tallies moving off the instance's
		// inline one. 2.75 + 1/6 + 1 + 1 + 0.25 + 4 + 1 = 10.17.
		const want = 10.17
		const n, f = 4, 1
		spec := quorum.MustNew(n, f)
		peers := types.Processes(n)
		target := NewCoded(2, peers, spec)
		senders := [2]*Broadcaster{NewCoded(1, peers, spec), NewCoded(1, peers, spec)}
		out := make([]types.Message, 0, 4*n)
		// equivocation is one instance's two dispersals and the ready for
		// each, made before anything is measured.
		type equivocation struct {
			id    types.InstanceID
			frags [2][]*types.RBCFragPayload
			sums  [2]*types.RBCSumPayload
		}
		seq := 0
		instance := func() (e equivocation) {
			seq++
			tag := types.Tag{Seq: seq}
			e.id = types.InstanceID{Sender: 1, Tag: tag}
			for v, s := range senders {
				e.frags[v] = make([]*types.RBCFragPayload, n)
				for _, m := range s.AppendBroadcast(nil, tag, fmt.Sprintf("body %c of the equivocation", 'A'+v)) {
					p := m.Payload.(*types.RBCFragPayload)
					e.frags[v][p.Index] = p
				}
				e.sums[v] = &types.RBCSumPayload{ID: e.id, Sum: dispersalKey(e.frags[v][0])}
			}
			return e
		}
		// handle drives one equivocated instance at the target: body A's
		// dispersal and echoes from p1, p2 and p4, body B's from p3 and p4,
		// then a ready quorum for A and one ready for B.
		handle := func(e *equivocation) (delivered int) {
			a, bb := e.frags[0], e.frags[1]
			for _, step := range []struct {
				from types.ProcessID
				p    *types.RBCFragPayload
			}{{1, a[1]}, {2, a[1]}, {3, bb[2]}, {4, bb[3]}, {1, a[0]}, {4, a[3]}} {
				out, _ = target.AppendHandleFrag(out[:0], step.from, step.p)
			}
			var ds []Delivery
			for _, from := range []types.ProcessID{1, 3, 4} {
				out, ds = target.AppendHandleSum(out[:0], from, e.sums[0])
				delivered += len(ds)
			}
			out, _ = target.AppendHandleSum(out[:0], 3, e.sums[1])
			return delivered
		}
		var cycle [codedCycle]equivocation
		run := func() {
			for i := range cycle {
				if handle(&cycle[i]) != 1 {
					panic("the equivocated instance did not deliver body A once")
				}
				target.DropSeqBelow(cycle[i].id.Tag.Seq + 1)
			}
		}
		for i := range cycle {
			cycle[i] = instance()
		}
		run() // size the reused buffers and reach a block boundary
		for i := range cycle {
			cycle[i] = instance()
		}
		got := mallocs(run) / codedCycle
		t.Logf("%.2f allocations per equivocated coded instance at n=%d", got, n)
		if !raceEnabled && fmt.Sprintf("%.2f", got) != fmt.Sprintf("%.2f", want) {
			t.Errorf("%.2f allocations per instance, want %.2f", got, want)
		}

		e := instance()
		handle(&e)
		cs := codedAt(target, e.id)
		if cs == nil || len(cs.keys) != 1 || len(cs.sets) != 1 {
			t.Fatalf("a two-key instance holds %d keys and %d sets in its maps, want 1 and 1", len(cs.keys), len(cs.sets))
		}
		second := cs.set(e.sums[1].Sum)
		if cs.first.have != 3 || second == nil || second.have != 2 {
			t.Fatal("the equivocated instance's two fragment sets hold the wrong fragments")
		}
		first, other := cs.first.frags, second.frags
		if !target.Compact(e.id) {
			t.Fatal("the delivered equivocated instance did not compact")
		}
		if held := heldFragments(first) + heldFragments(other); held != 0 || cs.first.body != "" {
			t.Fatalf("a compacted instance still holds %d fragments and a %d-byte body", held, len(cs.first.body))
		}
	})
}

// mallocs returns how many heap allocations f makes, run once on one
// processor as testing.AllocsPerRun runs it, but without a warm-up run: the
// callers warm up themselves, with other instances.
func mallocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// heldFragments counts the held slots of a fragment table.
func heldFragments(frags []string) int {
	held := 0
	for _, f := range frags {
		if f != "" {
			held++
		}
	}
	return held
}

// allocCluster is n coded broadcasters and a FIFO queue between them, both
// reused across instances so that only the broadcasters allocate.
type allocCluster struct {
	procs map[types.ProcessID]*Broadcaster
	peers []types.ProcessID
	queue []types.Message
	out   []types.Message
}

func newAllocCluster(n, f int) *allocCluster {
	spec := quorum.MustNew(n, f)
	c := &allocCluster{procs: map[types.ProcessID]*Broadcaster{}, peers: types.Processes(n)}
	for _, p := range c.peers {
		c.procs[p] = NewCoded(p, c.peers, spec)
	}
	c.queue = make([]types.Message, 0, 4*n*n)
	c.out = make([]types.Message, 0, 4*n)
	return c
}

// run disperses body from p1 under tag and delivers every message in
// order; every process must deliver body once.
func (c *allocCluster) run(tag types.Tag, body string) {
	c.queue = c.procs[1].AppendBroadcast(c.queue[:0], tag, body)
	delivered := 0
	for i := 0; i < len(c.queue); i++ {
		m := c.queue[i]
		var ds []Delivery
		c.out, ds, _ = c.procs[m.To].AppendHandlePayload(c.out[:0], m.From, m.Payload)
		for _, d := range ds {
			if d.Body != body {
				panic("coded instance delivered the wrong body")
			}
			delivered++
		}
		c.queue = append(c.queue, c.out...)
	}
	if delivered != len(c.peers) {
		panic(fmt.Sprintf("%d of %d processes delivered", delivered, len(c.peers)))
	}
}

// drop releases every instance below seq at every process.
func (c *allocCluster) drop(seq int) {
	for _, p := range c.peers {
		c.procs[p].DropSeqBelow(seq)
	}
}

package smr

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ckpt"
	"repro/internal/coin"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestSMRSubmitBounds: the submit queue is bounded and signals rejection —
// a saturated or halted replica must not silently retain every command a
// client ever offers.
func TestSMRSubmitBounds(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	rep, err := New(Config{
		Me: 2, Peers: peers, Spec: spec,
		NewCoin:    func(int) coin.Coin { return coin.NewIdeal(1) },
		Machine:    newKV(),
		QueueLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Submit("set a 1") || !rep.Submit("set b 2") {
		t.Fatal("submissions within the bound rejected")
	}
	if rep.Submit("set c 3") {
		t.Fatal("submission beyond QueueLimit accepted")
	}
	if rep.Dropped() != 1 || len(rep.ord.queue) != 2 {
		t.Fatalf("dropped=%d queue=%d, want 1 and 2", rep.Dropped(), len(rep.ord.queue))
	}

	// A Done replica will never propose again: accepting would leak forever.
	replicas, _ := buildSMR(t, 4, 1, 1, 4, 2)
	done := replicas[0]
	if !done.Done() {
		t.Fatal("precondition: cluster run left replica not Done")
	}
	if done.Submit("set late 1") {
		t.Fatal("Done replica accepted a submission")
	}
	if done.Dropped() == 0 {
		t.Fatal("Done-replica rejection not counted")
	}

	// With batching on, a command that cannot fit any batch body is
	// rejected at the door instead of wedging the proposer.
	big, err := New(Config{
		Me: 2, Peers: peers, Spec: spec,
		NewCoin: func(int) coin.Coin { return coin.NewIdeal(1) },
		Machine: newKV(),
		Batch:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.Submit(string(make([]byte, wire.MaxBatchBytes+1))) {
		t.Fatal("unencodable oversized command accepted with batching on")
	}
}

// buildBatchedSMR wires an all-live batched, pipelined cluster: each
// replica preloads `per` commands and the cluster runs maxSlots slots.
func buildBatchedSMR(t *testing.T, n, f, maxSlots, batch, depth, per int, seed int64) ([]*Replica, []*kvMachine) {
	t.Helper()
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 25}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, 0, n)
	machines := make([]*kvMachine, 0, n)
	for _, p := range peers {
		p := p
		m := newKV()
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return coin.NewLocal(seed + int64(p)*1000 + int64(slot))
			},
			Machine:  m,
			maxSlots: maxSlots,
			Batch:    batch,
			Depth:    depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < per; c++ {
			if !rep.Submit(fmt.Sprintf("set k%d-%d v%d", p, c, c)) {
				t.Fatalf("preload submission %d rejected at %v", c, p)
			}
		}
		replicas = append(replicas, rep)
		machines = append(machines, m)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func() bool {
		for _, rep := range replicas {
			if !rep.Done() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return replicas, machines
}

// TestSMRBatchedClusterAgrees: with batching and pipelining on, all
// replicas commit identical multi-entry logs, every proposer's commands
// land in submission order, and the state machines apply identically.
func TestSMRBatchedClusterAgrees(t *testing.T) {
	const n, slots, batch, depth, per = 4, 8, 3, 2, 6
	replicas, machines := buildBatchedSMR(t, n, 1, slots, batch, depth, per, 5)
	first := replicas[0].LogSince(0)
	for _, rep := range replicas[1:] {
		if !reflect.DeepEqual(rep.LogSince(0), first) {
			t.Fatalf("batched log divergence:\n%v\nvs\n%v", rep.LogSince(0), first)
		}
	}
	for _, m := range machines[1:] {
		if !reflect.DeepEqual(m.applied, machines[0].applied) {
			t.Fatalf("apply-order divergence: %v vs %v", m.applied, machines[0].applied)
		}
	}
	// Every replica preloaded 2 turns' worth of full batches: the log holds
	// batch entries per slot, indexed 0..batch-1, ordered by (slot, index).
	if want := slots * batch; len(first) != want {
		t.Fatalf("log has %d entries for %d slots at batch %d, want %d", len(first), slots, batch, want)
	}
	for i, e := range first {
		if e.Slot != i/batch || e.Index != i%batch {
			t.Fatalf("entry %d at (slot %d, index %d), want (%d, %d)", i, e.Slot, e.Index, i/batch, i%batch)
		}
	}
	// Per-proposer commands commit in submission order.
	next := map[types.ProcessID]int{}
	for _, e := range first {
		want := fmt.Sprintf("set k%d-%d v%d", e.Proposer, next[e.Proposer], next[e.Proposer])
		if e.Command != want {
			t.Fatalf("slot %d.%d from %v committed %q, want %q", e.Slot, e.Index, e.Proposer, e.Command, want)
		}
		next[e.Proposer]++
	}
	// LogSince serves whole-slot tails across the batched log.
	tail := replicas[0].LogSince(slots - 2)
	if len(tail) != 2*batch || tail[0].Slot != slots-2 || tail[0].Index != 0 {
		t.Fatalf("LogSince(%d) returned %d entries starting (%d,%d)", slots-2, len(tail), tail[0].Slot, tail[0].Index)
	}
}

// TestBatchEntriesShareOneBody: a committed batch is not copied command by
// command. Every entry of a slot is a substring of one string whose bytes
// are the slot's canonical batch body, and the machine's value for each
// command's key points into that same body. It holds for the broadcast body
// itself (plain) and for the body each replica decodes (coded).
func TestBatchEntriesShareOneBody(t *testing.T) {
	const n, slots, batch, depth, per = 4, 8, 3, 2, 6
	for _, coded := range []bool{false, true} {
		build := buildBatchedSMR
		if coded {
			build = buildCodedSMR
		}
		replicas, machines := build(t, n, 1, slots, batch, depth, per, 5)
		for i, rep := range replicas {
			bySlot := map[int][]string{}
			for _, e := range rep.LogSince(0) {
				if e.Command != Noop {
					bySlot[e.Slot] = append(bySlot[e.Slot], e.Command)
				}
			}
			// order-free: each slot is checked on its own
			for slot, cmds := range bySlot {
				body, err := wire.EncodeBatch(cmds)
				if err != nil {
					t.Fatal(err)
				}
				// The body each command would sit in starts at its address
				// less its offset in the canonical encoding.
				var base uintptr
				first := 0
				off := 1 + len(binary.AppendUvarint(nil, uint64(len(cmds))))
				for j, c := range cmds {
					off += len(binary.AppendUvarint(nil, uint64(len(c))))
					at := uintptr(unsafe.Pointer(unsafe.StringData(c))) - uintptr(off)
					if j == 0 {
						base, first = at, off
					} else if at != base {
						t.Fatalf("coded=%v replica %d slot %d: command %d is not in command 0's body", coded, i, slot, j)
					}
					off += len(c)
				}
				start := unsafe.Add(unsafe.Pointer(unsafe.StringData(cmds[0])), -first)
				if got := unsafe.String((*byte)(start), len(body)); got != body {
					t.Fatalf("coded=%v replica %d slot %d: commands sit in %q, not the batch body %q", coded, i, slot, got, body)
				}
				for _, c := range cmds {
					f := strings.Fields(c)
					v := uintptr(unsafe.Pointer(unsafe.StringData(machines[i].state[f[1]])))
					if v < base || v >= base+uintptr(len(body)) {
						t.Fatalf("coded=%v replica %d slot %d: value of %s is outside the batch body", coded, i, slot, f[1])
					}
				}
			}
		}
	}
}

// TestSMRBatchedCheckpointTruncation: checkpoint cuts truncate a batched
// log on slot boundaries and the chained digests still agree.
func TestSMRBatchedCheckpointTruncation(t *testing.T) {
	const n, slots, every, batch = 4, 12, 4, 3
	spec := quorum.MustNew(n, 1)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{Scheduler: sim.UniformDelay{Min: 1, Max: 25}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, 0, n)
	for _, p := range peers {
		p := p
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return coin.NewLocal(7 + int64(p)*1000 + int64(slot))
			},
			Machine:          NewKVMachine(),
			maxSlots:         slots,
			Batch:            batch,
			CheckpointEvery:  every,
			CheckpointSecret: []byte("test-cluster"),
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 9; c++ {
			rep.Submit(fmt.Sprintf("set k%d-%d %d", p, c, c))
		}
		replicas = append(replicas, rep)
		if err := net.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.Run(func() bool {
		for _, rep := range replicas {
			if !rep.Done() {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	first := replicas[0]
	for _, rep := range replicas {
		if rep.Base() == 0 {
			t.Errorf("%v never truncated its batched log", rep.ID())
		}
		// Truncation lands on a slot boundary: the retained tail starts at
		// index 0 of the base slot.
		tail := rep.LogSince(0)
		if len(tail) > 0 && (tail[0].Slot != rep.Base() || tail[0].Index != 0) {
			t.Errorf("%v retained tail starts (%d,%d), want (%d,0)", rep.ID(), tail[0].Slot, tail[0].Index, rep.Base())
		}
		if rep.LogDigest() != first.LogDigest() {
			t.Errorf("%v log digest %x, want %x", rep.ID(), rep.LogDigest(), first.LogDigest())
		}
	}
}

// TestInstallJumpQueueConsume is the install-jump property test: a replica
// catching up by state transfer consumes exactly what its skipped proposing
// turns would have taken — never re-proposing a consumed command at a later
// slot, never dropping an unconsumed one — across batch sizes × pipeline
// depths × jump cuts × queue sizes. The consumption policy is checked
// against an independent mirror of proposalTake, and the post-jump
// proposals are decoded and compared chunk-for-chunk.
func TestInstallJumpQueueConsume(t *testing.T) {
	spec := quorum.MustNew(4, 1)
	peers := types.Processes(4)
	for _, batch := range []int{1, 2, 3} {
		for _, depth := range []int{1, 2, 5} {
			for cut := 2; cut <= 14; cut += 3 {
				for _, m := range []int{0, 1, 4, 9, 17} {
					name := fmt.Sprintf("batch=%d/depth=%d/cut=%d/cmds=%d", batch, depth, cut, m)
					t.Run(name, func(t *testing.T) {
						rep, err := New(Config{
							Me: 1, Peers: peers, Spec: spec,
							NewCoin:          func(int) coin.Coin { return coin.NewIdeal(1) },
							Machine:          NewKVMachine(),
							Batch:            batch,
							Depth:            depth,
							CheckpointEvery:  4,
							CheckpointSecret: []byte("t"),
						})
						if err != nil {
							t.Fatal(err)
						}
						cmds := make([]string, m)
						for i := range cmds {
							cmds[i] = fmt.Sprintf("set k%d v%d", i, i)
							if !rep.Submit(cmds[i]) {
								t.Fatalf("submission %d rejected", i)
							}
						}

						// Mirror of the replica's consumption policy:
						// rotation[0] is p1, so p1's turns are s % 4 == 0.
						mine := func(s int) bool { return s%4 == 0 }
						take := func(left int) int {
							if left == 0 {
								return 0
							}
							k := 1
							if batch > 1 {
								k = batch
							}
							if k > left {
								k = left
							}
							return k
						}
						eff := depth
						if eff < 1 {
							eff = 1
						}
						pos := 0
						wait := map[int]bool{}
						chunks := map[int][2]int{} // disseminated turn -> [start, end) of cmds
						proposeMirror := func(from, to int) {
							for s := from; s < to; s++ {
								if !mine(s) || wait[s] {
									continue
								}
								k := take(m - pos)
								chunks[s] = [2]int{pos, pos + k}
								wait[s] = true
								pos += k
							}
						}
						proposeMirror(0, eff) // Start's dissemination window
						for s := 0; s < cut; s++ {
							if !mine(s) || wait[s] {
								continue
							}
							k := take(m - pos)
							if k == 0 {
								break
							}
							pos += k
						}

						// Drive the replica: Start, then a synthetic verified
						// transfer install jumping to the cut (Adopt and
						// install do not re-verify; onCkpt's gate did that).
						bodies := map[int]string{} // slot -> disseminated body
						collect := func(msgs []types.Message) {
							for _, msg := range msgs {
								p, ok := msg.Payload.(*types.RBCPayload)
								if !ok || p.Phase != types.KindRBCSend || p.ID.Tag.Seq < dissemNS {
									continue
								}
								bodies[p.ID.Tag.Seq-dissemNS] = p.Body
							}
						}
						collect(rep.Start())
						snapshot := NewKVMachine().Snapshot()
						cert := ckpt.Certificate{Checkpoint: ckpt.Checkpoint{
							Slot:        cut,
							StateDigest: ckpt.Digest(snapshot),
							LogDigest:   0xfeed,
						}}
						collect(rep.install(nil, cert, snapshot))
						proposeMirror(cut, cut+eff) // install's trailing propose

						if rep.Slot() != cut || rep.Transfers() != 1 {
							t.Fatalf("install did not land: slot=%d transfers=%d", rep.Slot(), rep.Transfers())
						}
						// Nothing unconsumed dropped: the queue is exactly the
						// unconsumed suffix, in order.
						want := cmds[pos:]
						if len(rep.ord.queue) != len(want) {
							t.Fatalf("queue after install = %q, want suffix %q", rep.ord.queue, want)
						}
						for i := range want {
							if rep.ord.queue[i] != want[i] {
								t.Fatalf("queue after install = %q, want suffix %q", rep.ord.queue, want)
							}
						}
						// Nothing consumed re-proposed: each disseminated turn
						// carries exactly its mirror chunk (noop when empty),
						// and chunks are disjoint by construction.
						for s, want := range chunks {
							body, ok := bodies[s]
							if !ok {
								if s >= cut && wait[s] && s < eff {
									continue // disseminated pre-jump, survives the install
								}
								t.Fatalf("turn %d never disseminated", s)
							}
							wantCmds := cmds[want[0]:want[1]]
							switch {
							case len(wantCmds) == 0:
								if body != Noop {
									t.Fatalf("turn %d = %q, want noop", s, body)
								}
							case batch <= 1:
								if body != wantCmds[0] {
									t.Fatalf("turn %d = %q, want %q", s, body, wantCmds[0])
								}
							default:
								got, err := wire.DecodeBatch(body)
								if err != nil {
									t.Fatalf("turn %d body undecodable: %v", s, err)
								}
								if !reflect.DeepEqual(got, wantCmds) {
									t.Fatalf("turn %d = %q, want %q", s, got, wantCmds)
								}
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkSMRBatchedDelivery is BenchmarkSMRDelivery with the batched,
// pipelined proposal path live (batch 8, depth 2, queues preloaded): the
// zero-allocation delivery gate must hold when proposing turns encode
// batch bodies and commits unbatch them (both amortize across the slot's
// thousands of deliveries, like the per-slot consensus setup).
func BenchmarkSMRBatchedDelivery(b *testing.B) {
	const n, f = 16, 5
	spec := quorum.MustNew(n, f)
	peers := types.Processes(n)
	net, err := sim.New(sim.Config{
		Scheduler:     sim.UniformDelay{Min: 1, Max: 25},
		Seed:          1,
		MaxDeliveries: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range peers {
		p := p
		rep, err := New(Config{
			Me: p, Peers: peers, Spec: spec,
			NewCoin: func(slot int) coin.Coin {
				return coin.NewLocal(int64(p)*1000 + int64(slot))
			},
			Machine: newKV(),
			Batch:   8,
			Depth:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < 4096; c++ {
			rep.Submit(fmt.Sprintf("set k%d-%d v%d", p, c, c))
		}
		if err := net.Add(rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	stats, err := net.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Delivered != b.N {
		b.Fatalf("delivered %d, want %d", stats.Delivered, b.N)
	}
}

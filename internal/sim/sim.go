// Package sim is the asynchronous network the paper assumes: a
// discrete-event message-passing simulator in which delivery order is fully
// controlled by a pluggable Scheduler. Time is abstract (int64 ticks); the
// only guarantee the default schedulers provide is the model's — every
// message between correct processes is eventually delivered, in any order.
//
// Protocol nodes are passive deterministic state machines (see Node): the
// simulator feeds them one message at a time and queues whatever they emit.
// All randomness flows from the run's seed, so any execution — including the
// adversarially scheduled ones — replays exactly.
//
// # Determinism contract
//
// A run is a pure function of (registered nodes, scheduler, seed): events are
// delivered in the strict total order (delivery time, send sequence), nodes
// are started in registration order, and the only randomness is the run's
// seeded RNG. The order is the contract, not the structure that produces it:
// the queue is a ring of per-tick buckets with a heap for far-future events
// (queue.go argues why it pops what a heap pops). Nothing in a Network reads
// clocks, goroutine identity, or global state. This contract is what makes executions replayable byte for byte,
// and it is what runner.Sweep relies on to fan independent runs across
// worker goroutines: each run owns its Network outright, so runs scheduled
// on different workers — in any order, at any parallelism — produce
// identical results. Optimizations to this package must preserve the
// contract (see the replay-equality tests in internal/runner).
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/trace"
	"repro/internal/types"
)

// Time is abstract simulation time.
type Time int64

// Drop is the sentinel a Scheduler returns to drop a message entirely.
// Dropping correct-to-correct traffic leaves the asynchronous model (which
// promises eventual delivery); it exists for failure-injection tests.
const Drop Time = -1

// Node is a deterministic protocol state machine. Implementations must not
// spawn goroutines, read clocks, or use global randomness: all inputs arrive
// via Start and Deliver, and all outputs are returned messages.
type Node interface {
	// ID returns the process identifier; it must be constant.
	ID() types.ProcessID
	// Start is called once before any delivery and returns the node's
	// initial messages.
	Start() []types.Message
	// Deliver hands the node one message addressed to it and returns the
	// messages this triggers.
	Deliver(m types.Message) []types.Message
	// Done reports that the node needs no further input (it halted).
	// The network stops delivering to done nodes.
	Done() bool
}

// Recycler is an optional Node extension for allocation-free runs. After
// the Network has copied every message of a Start or Deliver result into
// its queue, it hands the slice back through Recycle; the node may then
// reuse the backing array for a later result. Nodes that retain references
// to slices they returned must not implement Recycler. Drivers other than
// Network (unit tests, transport pumps) are free to never call it — a node
// must treat Recycle as a pure optimization hint.
type Recycler interface {
	Recycle(msgs []types.Message)
}

// OutBuffer is the canonical Recycler implementation, embedded by every
// protocol node that participates in the zero-allocation delivery loop: the
// driver hands back a consumed slice through Recycle, Take claims it (empty,
// possibly with capacity) for the next emission, and ownership of the
// backing array ping-pongs between the two — no allocation once warm. The
// same protocol nests: a layered node (ACS, SMR) takes the driver's role
// for its inner consensus instances, copying their emissions into its own
// buffer and recycling theirs straight back.
type OutBuffer struct {
	out []types.Message
}

// Recycle implements Recycler: keep the largest returned backing array.
func (b *OutBuffer) Recycle(msgs []types.Message) {
	if cap(msgs) > cap(b.out) {
		b.out = msgs[:0]
	}
}

// Take claims the recycled buffer; ownership transfers to the returned
// slice until the next Recycle.
func (b *OutBuffer) Take() []types.Message {
	out := b.out
	b.out = nil
	return out
}

// Scheduler decides when (at what abstract time) a message sent at `now` is
// delivered, or Drop to discard it. seq is a unique, monotonically increasing
// per-send number schedulers may use for deterministic tie-breaking; rng is
// the run's seeded randomness.
//
// A scheduler is owned by one run: the network calls it from the run's one
// goroutine and hands it the run's unsynchronized rng, so stateful families
// (FIFODelay, AdaptiveDelay) keep plain fields and a value must never be
// shared between concurrent runs — build one per run, as runner does.
type Scheduler interface {
	Deliver(m types.Message, now Time, seq uint64, rng *rand.Rand) Time
}

// Duplicator is an optional Scheduler extension for families that can
// deliver one send more than once (lossy links duplicate frames; see
// LossyDelay). After Deliver schedules the primary copy of a message at
// `at`, the network asks Duplicate whether a stale duplicate of the same
// message also arrives, and at what time. The duplicate is a real
// transmission: it counts as a sent message, is charged wire bytes, and is
// delivered like any other event, so protocols must be idempotent to it —
// which quorum-counting protocols are by construction. Duplicate is never
// called for a dropped primary.
type Duplicator interface {
	Duplicate(m types.Message, at, now Time, rng *rand.Rand) (Time, bool)
}

// Config configures a Network.
type Config struct {
	// Scheduler orders deliveries; required.
	Scheduler Scheduler
	// Seed feeds the run's private RNG.
	Seed int64
	// MaxDeliveries bounds the run (0 means DefaultMaxDeliveries). Runs
	// that exhaust it report Exhausted — for consensus runs that is a
	// liveness failure, which experiment E7 relies on detecting.
	MaxDeliveries int
	// Recorder, when enabled, receives SEND/DELIVER/DROP events.
	Recorder *trace.Recorder
	// Sizer, when non-nil, is charged once per sent message (after spoof
	// rejection, before scheduling — scheduler-dropped messages still hit
	// the wire and still count) and its results accumulate in Stats.Bytes.
	// It must be a pure function of the message; runner wires it to
	// wire.MessageSize so the total is bytes-on-the-wire under the real
	// codec without ever encoding.
	Sizer func(types.Message) int
	// Telemetry, when non-nil, is charged with per-kind counts, bytes and
	// queue-to-delivery latencies as the run executes, and mirrors the
	// network clock so protocol layers holding the same sink can stamp
	// phase marks (see telemetry.go). Nil costs one branch per send and
	// per delivery.
	Telemetry *Telemetry
}

// DefaultMaxDeliveries is the per-run event budget when none is given.
const DefaultMaxDeliveries = 2_000_000

// Stats summarizes a run.
type Stats struct {
	Sent      int   // messages handed to the network
	Delivered int   // messages delivered to nodes
	Dropped   int   // messages dropped (scheduler Drop or spoof rejection)
	Spoofed   int   // messages rejected because From != emitting node
	Bytes     int64 // total Config.Sizer bytes over sent messages (0 without a Sizer)
	End       Time  // time of the last delivery
	Exhausted bool  // the delivery budget ran out before quiescence
}

// maxDenseID bounds the dense node table. Process IDs at or below it are
// resolved by a single slice index on the delivery path; larger (or
// pathological) IDs fall back to the registration map, so a hostile ID
// cannot force a giant allocation.
const maxDenseID = 1 << 16

// Network is the simulator instance. Not safe for concurrent use: a run is a
// single-threaded deterministic event loop.
type Network struct {
	cfg   Config
	rng   *rand.Rand
	dup   Duplicator               // cfg.Scheduler's optional duplication hook (nil if absent)
	nodes map[types.ProcessID]Node // registry (duplicate detection, sparse IDs)
	dense []Node                   // dense[id] fast path for the delivery loop
	order []types.ProcessID        // Start order (insertion order, for determinism)

	queue eventQueue
	seq   uint64
	now   Time
	stats Stats

	started bool
}

// ErrNoScheduler is returned by New when Config.Scheduler is nil.
var ErrNoScheduler = errors.New("sim: config requires a scheduler")

// ErrDuplicateNode is returned by Add when a process ID is registered twice.
var ErrDuplicateNode = errors.New("sim: duplicate node")

// New creates an empty network.
func New(cfg Config) (*Network, error) {
	if cfg.Scheduler == nil {
		return nil, ErrNoScheduler
	}
	if cfg.MaxDeliveries <= 0 {
		cfg.MaxDeliveries = DefaultMaxDeliveries
	}
	dup, _ := cfg.Scheduler.(Duplicator)
	return &Network{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		dup:   dup,
		nodes: make(map[types.ProcessID]Node),
	}, nil
}

// Add registers a node. All nodes must be added before Run.
func (n *Network) Add(node Node) error {
	if n.started {
		return errors.New("sim: cannot add nodes after Run")
	}
	id := node.ID()
	if _, dup := n.nodes[id]; dup {
		return fmt.Errorf("%w: %v", ErrDuplicateNode, id)
	}
	n.nodes[id] = node
	if i := int(id); i > 0 && i <= maxDenseID {
		// Grow by appending so ascending registrations (the 1..n common
		// case) amortize to O(n) instead of reallocating per Add.
		for i >= len(n.dense) {
			n.dense = append(n.dense, nil)
		}
		n.dense[i] = node
	}
	n.order = append(n.order, id)
	return nil
}

// lookup resolves a destination process to its node (nil if unknown).
func (n *Network) lookup(id types.ProcessID) Node {
	if i := int(id); i > 0 && i < len(n.dense) {
		return n.dense[i]
	}
	return n.nodes[id]
}

// Rand exposes the run's RNG so co-operating components (adversarial
// schedulers) share the same deterministic randomness stream.
func (n *Network) Rand() *rand.Rand { return n.rng }

// Run pumps the event loop until quiescence (empty queue), until stop
// returns true (checked after every delivery; nil means never), or until the
// delivery budget is exhausted. It returns the run's statistics and may be
// called only once.
func (n *Network) Run(stop func() bool) (Stats, error) {
	if n.started {
		return Stats{}, errors.New("sim: Run called twice")
	}
	n.started = true
	for _, id := range n.order {
		node := n.nodes[id]
		n.dispatch(node, node.Start())
	}
	for n.queue.Len() > 0 {
		if n.stats.Delivered >= n.cfg.MaxDeliveries {
			n.stats.Exhausted = true
			break
		}
		ev := n.queue.pop()
		n.now = ev.at
		tele := n.cfg.Telemetry
		if tele != nil {
			tele.now = n.now
		}
		dst := n.lookup(ev.msg.To)
		if dst == nil || dst.Done() {
			// Unknown destination or halted node: the message evaporates.
			n.stats.Dropped++
			if tele != nil {
				tele.Kinds[kindIndex(ev.msg)].Dropped++
			}
			n.record(trace.Event{Time: int64(n.now), Kind: trace.KindDrop, P: ev.msg.To, Msg: ev.msg, Seq: ev.seq, Note: "destination done or unknown"})
			continue
		}
		n.stats.Delivered++
		n.stats.End = n.now
		if tele != nil {
			ks := &tele.Kinds[kindIndex(ev.msg)]
			ks.Delivered++
			ks.Latency.Observe(int64(n.now - ev.sent))
		}
		n.record(trace.Event{Time: int64(n.now), Kind: trace.KindDeliver, P: ev.msg.To, Msg: ev.msg, Seq: ev.seq})
		// Everything recorded while this delivery's handler runs — the
		// sends it emits, the decides and round advances it triggers — is
		// causally due to this message: stamp it as the parent (see
		// trace.Recorder.SetParent and internal/obs).
		n.setParent(ev.seq)
		n.dispatch(dst, dst.Deliver(ev.msg))
		n.setParent(0)
		if stop != nil && stop() {
			break
		}
	}
	return n.stats, nil
}

// dispatch queues a node's output and, once every message has been copied
// into the event queue, offers the slice back to the node for reuse. Empty
// slices are recycled too: most deliveries of a consensus run emit nothing
// (sub-threshold echoes, unreconstructed coin shares), and dropping the
// buffer there would force a fresh allocation at the next emitting
// delivery.
func (n *Network) dispatch(node Node, msgs []types.Message) {
	if msgs == nil {
		return
	}
	n.send(node, msgs)
	if r, ok := node.(Recycler); ok {
		r.Recycle(msgs)
	}
}

// send queues the messages emitted by node, enforcing authenticated links:
// a message whose From is not the emitting node is rejected (and counted),
// exactly as an authenticated channel would reject a forged frame.
func (n *Network) send(node Node, msgs []types.Message) {
	tele := n.cfg.Telemetry
	for _, m := range msgs {
		if m.From != node.ID() {
			n.stats.Spoofed++
			n.stats.Dropped++
			if tele != nil {
				tele.Kinds[kindIndex(m)].Dropped++
			}
			n.record(trace.Event{Time: int64(n.now), Kind: trace.KindDrop, P: node.ID(), Msg: m, Note: "spoofed sender"})
			continue
		}
		n.seq++
		at := n.cfg.Scheduler.Deliver(m, n.now, n.seq, n.rng)
		n.stats.Sent++
		var sz int64
		if n.cfg.Sizer != nil {
			sz = int64(n.cfg.Sizer(m))
			n.stats.Bytes += sz
		}
		if tele != nil {
			ks := &tele.Kinds[kindIndex(m)]
			ks.Sent++
			ks.Bytes += sz
		}
		n.record(trace.Event{Time: int64(n.now), Kind: trace.KindSend, P: node.ID(), Msg: m, Seq: n.seq})
		if at < n.now {
			if at == Drop {
				n.stats.Dropped++
				if tele != nil {
					tele.Kinds[kindIndex(m)].Dropped++
				}
				n.record(trace.Event{Time: int64(n.now), Kind: trace.KindDrop, P: node.ID(), Msg: m, Seq: n.seq, Note: "scheduler drop"})
				continue
			}
			at = n.now // schedulers cannot deliver into the past
		}
		n.queue.push(at, n.seq, m)
		if n.dup != nil {
			if dat, ok := n.dup.Duplicate(m, at, n.now, n.rng); ok {
				if dat < n.now {
					dat = n.now
				}
				n.seq++
				n.stats.Sent++
				n.stats.Bytes += sz
				if tele != nil {
					ks := &tele.Kinds[kindIndex(m)]
					ks.Sent++
					ks.Bytes += sz
				}
				n.record(trace.Event{Time: int64(n.now), Kind: trace.KindSend, P: node.ID(), Msg: m, Seq: n.seq})
				n.queue.push(dat, n.seq, m)
			}
		}
	}
}

func (n *Network) record(e trace.Event) {
	if n.cfg.Recorder.Enabled() {
		n.cfg.Recorder.Record(e)
	}
}

func (n *Network) setParent(seq uint64) {
	if n.cfg.Recorder.Enabled() {
		n.cfg.Recorder.SetParent(seq)
	}
}

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
// (queue.go argues why it pops what a heap pops). The node set is fixed once
// Run starts, so mail to a process that was never registered can never be
// delivered: it is counted as dropped when it is sent and is not queued at
// all. With an enabled recorder it is queued, so that its drop event keeps
// its place in the trace, but popping it counts nothing, and it never makes
// a run exhausted: both counts are the same with the recorder on or off.
// Nothing in a Network reads clocks, goroutine identity, or global state.
// This contract is what makes executions replayable byte for byte,
// and it is what runner's sweeps rely on to fan independent runs across
// worker goroutines: a Network belongs to one goroutine, a sweep worker owns
// its network and re-arms it with Reset for each run, and a re-armed network
// runs exactly what a new one would, so runs scheduled on different workers
// — in any order, at any parallelism — produce identical results.
// Optimizations to this package must preserve the contract (see the
// replay-equality tests in internal/runner and TestNetworkResetMatchesNew).
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
// Network (unit tests pumping nodes by hand) are free to never call it — a node
// must treat Recycle as a pure optimization hint.
type Recycler interface {
	Recycle(msgs []types.Message)
}

// OutBuffer is the canonical Recycler implementation, embedded by every
// protocol node that participates in the zero-allocation delivery loop: the
// driver hands back a consumed slice through Recycle, Take claims it (empty,
// possibly with capacity) for the next emission, and ownership of the
// backing array ping-pongs between the two — no allocation once warm. A
// layered node (ACS, SMR) needs no second buffer for its inner consensus
// instances: they append straight into its own (core.Node.AppendDeliver).
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
	// Recorder, when enabled, receives SEND/DELIVER/DROP events. An
	// enabled recorder also has mail to processes never registered queued
	// like any other, so that its drop event keeps the message and its
	// place in the trace; that mail is counted as dropped when sent either
	// way.
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
	Sent      int // messages handed to the network
	Delivered int // messages delivered to nodes
	// Dropped counts messages dropped: by a scheduler Drop, by spoof
	// rejection, for a destination that was never registered (counted when
	// sent, so it includes such mail still in flight when the run stops),
	// or for a destination that is done (counted when popped).
	Dropped int
	Spoofed int   // messages rejected because From != emitting node
	Bytes   int64 // total Config.Sizer bytes over sent messages (0 without a Sizer)
	End     Time  // time of the last delivery
	// Exhausted reports that the delivery budget ran out while a message
	// to a registered process was still pending; undeliverable mail to
	// processes never registered does not count.
	Exhausted bool
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
	dead  int // queued letters to processes never registered (recorder only)
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
	n := &Network{nodes: make(map[types.ProcessID]Node)}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset re-arms the network for a new run under cfg: it returns to the
// state New(cfg) produces, except that the nodes registered so far stay
// registered, in their order. The queue drops whatever the last run left in
// it but keeps its chunk blocks, and the RNG is re-seeded in place, so a
// driver that runs one cluster seed after seed builds its network once. The
// registered nodes are the driver's to re-arm; as after New, it may Add more
// and then calls Run.
func (n *Network) Reset(cfg Config) error {
	if cfg.Scheduler == nil {
		return ErrNoScheduler
	}
	if cfg.MaxDeliveries <= 0 {
		cfg.MaxDeliveries = DefaultMaxDeliveries
	}
	rng := n.rng
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		rng.Seed(cfg.Seed)
	}
	n.queue.reset()
	dup, _ := cfg.Scheduler.(Duplicator)
	*n = Network{
		cfg:   cfg,
		rng:   rng,
		dup:   dup,
		nodes: n.nodes,
		dense: n.dense,
		order: n.order,
		queue: n.queue,
	}
	return nil
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
// Every registered ID in (0, maxDenseID] is in dense, so an unregistered one
// — a silent process nobody runs — is nil without probing the registry.
func (n *Network) lookup(id types.ProcessID) Node {
	if i := int(id); i > 0 && i <= maxDenseID {
		if i < len(n.dense) {
			return n.dense[i]
		}
		return nil
	}
	return n.nodes[id]
}

// Run pumps the event loop until quiescence (empty queue), until stop
// returns true (checked after every delivery; nil means never), or until the
// delivery budget is exhausted. It returns the run's statistics and may be
// called only once per New or Reset.
func (n *Network) Run(stop func() bool) (Stats, error) {
	if n.started {
		return Stats{}, errors.New("sim: Run called twice")
	}
	n.started = true
	// Trace events are built only under an enabled recorder: a disabled one
	// would discard them, and building one copies a ~100-byte struct per
	// message.
	rec := n.cfg.Recorder
	for _, id := range n.order {
		node := n.nodes[id]
		n.dispatch(node, node.Start())
	}
	for n.queue.Len() > 0 {
		if n.stats.Delivered >= n.cfg.MaxDeliveries {
			n.stats.Exhausted = n.queue.Len() > n.dead
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
			// Mail to an unknown one was counted when sent.
			if dst == nil {
				n.dead--
			} else {
				n.stats.Dropped++
				if tele != nil {
					tele.Kinds[kindIndex(ev.msg)].Dropped++
				}
			}
			if rec.Enabled() {
				rec.Record(trace.Event{Time: int64(n.now), Kind: trace.KindDrop, P: ev.msg.To, Msg: ev.msg, Seq: ev.seq, Note: "destination done or unknown"})
			}
			continue
		}
		n.stats.Delivered++
		n.stats.End = n.now
		if tele != nil {
			ks := &tele.Kinds[kindIndex(ev.msg)]
			ks.Delivered++
			ks.Latency.Observe(int64(n.now - ev.sent))
		}
		if rec.Enabled() {
			rec.Record(trace.Event{Time: int64(n.now), Kind: trace.KindDeliver, P: ev.msg.To, Msg: ev.msg, Seq: ev.seq})
			// Everything recorded while this delivery's handler runs — the
			// sends it emits, the decides and round advances it triggers —
			// is causally due to this message: stamp it as the parent (see
			// trace.Recorder.SetParent and internal/obs).
			rec.SetParent(ev.seq)
		}
		n.dispatch(dst, dst.Deliver(ev.msg))
		if rec.Enabled() {
			rec.SetParent(0)
		}
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
	rec := n.cfg.Recorder
	for _, m := range msgs {
		if m.From != node.ID() {
			n.stats.Spoofed++
			n.stats.Dropped++
			if tele != nil {
				tele.Kinds[kindIndex(m)].Dropped++
			}
			if rec.Enabled() {
				rec.Record(trace.Event{Time: int64(n.now), Kind: trace.KindDrop, P: node.ID(), Msg: m, Note: "spoofed sender"})
			}
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
		if rec.Enabled() {
			rec.Record(trace.Event{Time: int64(n.now), Kind: trace.KindSend, P: node.ID(), Msg: m, Seq: n.seq})
		}
		if at < n.now {
			if at == Drop {
				n.stats.Dropped++
				if tele != nil {
					tele.Kinds[kindIndex(m)].Dropped++
				}
				if rec.Enabled() {
					rec.Record(trace.Event{Time: int64(n.now), Kind: trace.KindDrop, P: node.ID(), Msg: m, Seq: n.seq, Note: "scheduler drop"})
				}
				continue
			}
			at = n.now // schedulers cannot deliver into the past
		}
		dead := n.lookup(m.To) == nil
		if dead {
			n.mailDead(at, m)
		} else {
			n.queue.push(at, n.seq, m)
		}
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
				if rec.Enabled() {
					rec.Record(trace.Event{Time: int64(n.now), Kind: trace.KindSend, P: node.ID(), Msg: m, Seq: n.seq})
				}
				if dead {
					n.mailDead(dat, m)
				} else {
					n.queue.push(dat, n.seq, m)
				}
			}
		}
	}
}

// mailDead counts the letter just numbered n.seq as dropped: its
// destination was never registered, and Add refuses once Run has started, so
// it can never be delivered. It is queued only so that an enabled recorder
// sees its drop event in place.
func (n *Network) mailDead(at Time, m types.Message) {
	n.stats.Dropped++
	if tele := n.cfg.Telemetry; tele != nil {
		tele.Kinds[kindIndex(m)].Dropped++
	}
	if n.cfg.Recorder.Enabled() {
		n.dead++
		n.queue.push(at, n.seq, m)
	}
}

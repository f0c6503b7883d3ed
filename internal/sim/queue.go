package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/types"
)

// event is a queued delivery. sent is the time the message was handed to
// the network — kept alongside the delivery time so the telemetry plane can
// charge queue-to-delivery latency without a side table.
type event struct {
	at   Time
	seq  uint64
	sent Time
	msg  types.Message
}

// before is the queue's strict total order: time first, then the unique
// per-send sequence number. Because seq never repeats, no two events
// compare equal, so there is exactly one ascending (at, seq) sequence and
// any correct priority queue pops it.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is the simulator's event queue: a calendar of per-tick FIFO
// buckets for events due within queueSpan ticks of the clock, and a heap for
// the few due later. Delays here are small integers — 1..20 ticks under
// every default schedule — so nearly every event takes the O(1) near path;
// the far tier carries the zoo's long holds (straggler lag, heal times,
// rejoin, lossy retransmits).
//
// The clock is the time of the last popped event, and an event's sent time
// is the clock when it was pushed. The queue relies on the discipline of its
// one user: Network.send increments seq before every push and clamps at to
// the current time, which Network.Run takes from pop. push panics on a
// violation instead of misordering.
//
// Why it pops the same (at, seq) sequence a heap does: within one tick's
// bucket, append order is ascending seq; buckets are visited in ascending
// at; the far heap orders by (at, seq); and pop returns the smaller of the
// first bucket's head and the far heap's top under event.before. A far event
// stays in the far heap even once the clock comes within a span of it, so
// two events at one tick that entered through different tiers are ordered by
// that comparison, not by migration.
//
// A bucket is a chain of fixed-length chunks: push appends to its tail
// chunk and pop reads its head chunk front to back, so a tick's events are
// written and read sequentially. A drained chunk goes onto a free list and
// is the next one handed out, while it is still in cache. Chunks are
// allocated blockChunks at a time and never move, so memory follows the
// peak number of chunks in use, and nothing on the delivery path allocates
// once a run has reached that high water.
type eventQueue struct {
	now     Time
	lastSeq uint64
	n       int

	// buckets[at&(queueSpan-1)] chains the near events due at tick at;
	// occupied has its bit set while the bucket is non-empty.
	buckets  [queueSpan]bucket
	occupied [queueSpan / 64]uint64

	blocks []*[blockChunks]chunk
	used   int32 // chunks handed out so far; all blocks before the last are full
	free   int32 // head of the free list (0 = empty)

	far farHeap
}

// queueSpan is how many ticks ahead of the clock the bucket ring reaches; a
// power of two, and at most 256 because a chunk keeps each event's lag in a
// byte. No benchmark workload sends further than 57 ticks ahead.
const queueSpan = 256

// bucket is the first and last chunk of one tick's chain. Chunks count from
// 1 so that 0 means none.
type bucket struct {
	head, tail int32
}

// chunkLen is the length of a chunk, in events. Every live tick holds a
// partly filled chunk, so longer chunks cost memory on small runs (an n=7
// run peaks at ~260 events over ~21 ticks) for little speed on large ones.
const chunkLen = 16

// chunk is a run of one bucket's events, or a link of the free list. Pop
// reads ev[lo], push writes ev[hi]; a chunk that is not its bucket's tail is
// full. An event's sent time is its tick less lag: it was pushed within a
// span of its tick.
type chunk struct {
	ev     [chunkLen]slot
	lag    [chunkLen]uint8
	next   int32 // the next chunk of the bucket or the free list (0 = none)
	lo, hi uint8
}

// slot is a near event's seq and message (40 bytes).
type slot struct {
	seq uint64
	msg types.Message
}

// blockChunks is how many chunks one allocation holds (~21 KiB). One block
// covers a small run's peak (an n=7 run uses at most ~30 chunks); an n=64
// run's ~7 350 chunks take ~230 allocations.
const blockChunks = 32

// chunkAt returns chunk i, counting from 1.
func (q *eventQueue) chunkAt(i int32) *chunk {
	j := uint32(i - 1)
	return &q.blocks[j/blockChunks][j%blockChunks]
}

// newChunk hands out an empty chunk: the most recently freed one, or the
// next unused one.
func (q *eventQueue) newChunk() (int32, *chunk) {
	i := q.free
	if i == 0 {
		if int(q.used) == len(q.blocks)*blockChunks {
			q.blocks = append(q.blocks, new([blockChunks]chunk))
		}
		q.used++
		return q.used, q.chunkAt(q.used)
	}
	c := q.chunkAt(i)
	q.free = c.next
	c.next, c.lo, c.hi = 0, 0, 0
	return i, c
}

// reset empties the queue for a new run: the clock and the last seq go back
// to zero, every chunk handed out returns to the zero state a fresh block
// holds (dropping the payloads of events never popped), and the blocks stay
// for the next run to fill from the first.
func (q *eventQueue) reset() {
	for i := int32(1); i <= q.used; i++ {
		*q.chunkAt(i) = chunk{}
	}
	clear(q.far.a)
	*q = eventQueue{blocks: q.blocks, far: farHeap{a: q.far.a[:0]}}
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return q.n }

// push inserts an event sent now. Its time must not precede the clock and
// its seq must exceed every earlier push's.
func (q *eventQueue) push(at Time, seq uint64, msg types.Message) {
	if at < q.now || seq <= q.lastSeq {
		panic(fmt.Sprintf("sim: event queue contract broken: push(at %d, seq %d) with the clock at %d and the last seq %d",
			at, seq, q.now, q.lastSeq))
	}
	q.lastSeq = seq
	q.n++
	if at-q.now >= queueSpan {
		q.far.push(event{at: at, seq: seq, sent: q.now, msg: msg})
		return
	}
	b := int(at) & (queueSpan - 1)
	bk := &q.buckets[b]
	var c *chunk
	if q.occupied[b/64]&(1<<(b%64)) == 0 {
		q.occupied[b/64] |= 1 << (b % 64)
		bk.head, c = q.newChunk()
		bk.tail = bk.head
	} else if c = q.chunkAt(bk.tail); c.hi == chunkLen {
		tail := c
		bk.tail, c = q.newChunk()
		tail.next = bk.tail
	}
	// Field by field: a slot literal is built on the stack and then copied,
	// which costs this path a tenth of its time.
	s := &c.ev[c.hi]
	s.seq, s.msg = seq, msg
	c.lag[c.hi] = uint8(at - q.now)
	c.hi++
}

// nearest returns the first occupied bucket in ring order from the clock's
// and its distance from the clock in ticks, or ok false when the ring is
// empty.
func (q *eventQueue) nearest() (b, ahead int, ok bool) {
	const words = queueSpan / 64
	start := int(q.now) & (queueSpan - 1)
	w, bit := start/64, uint(start%64)
	// The clock's word from the clock's bit up — where the next event is
	// under 1..20-tick delays, nearly always — then the other words in ring
	// order, then the clock's word below the bit.
	if m := q.occupied[w] >> bit; m != 0 {
		ahead = bits.TrailingZeros64(m)
		return start + ahead, ahead, true
	}
	for k := 1; k <= words; k++ {
		m := q.occupied[(w+k)%words]
		if k == words {
			m &= 1<<bit - 1
		}
		if m != 0 {
			b = (w+k)%words*64 + bits.TrailingZeros64(m)
			return b, (b - start) & (queueSpan - 1), true
		}
	}
	return 0, 0, false
}

// pop removes and returns the minimum event and moves the clock to it. It
// must not be called on an empty queue.
func (q *eventQueue) pop() event {
	q.n--
	b, ahead, ok := q.nearest()
	if !ok {
		return q.popFar()
	}
	bk := &q.buckets[b]
	c := q.chunkAt(bk.head)
	s := &c.ev[c.lo]
	at := q.now + Time(ahead)
	e := event{at: at, seq: s.seq, sent: at - Time(c.lag[c.lo]), msg: s.msg}
	if len(q.far.a) > 0 && q.far.a[0].before(e) {
		return q.popFar()
	}
	q.now = at
	s.msg = types.Message{} // drop the payload reference for the GC
	if c.lo++; c.lo == c.hi {
		// The chunk is drained: the bucket moves on to its next one or,
		// when this was the tail, empties.
		if bk.head == bk.tail {
			q.occupied[b/64] &^= 1 << (b % 64)
		}
		i := bk.head
		bk.head = c.next
		c.next = q.free
		q.free = i
	}
	return e
}

func (q *eventQueue) popFar() event {
	e := q.far.pop()
	q.now = e.at
	return e
}

// farHeap is a 4-ary min-heap on (at, seq) with a retained backing array.
type farHeap struct {
	a []event
}

func (q *farHeap) push(e event) {
	q.a = append(q.a, e)
	// Sift up.
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.a[i].before(q.a[parent]) {
			break
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

func (q *farHeap) pop() event {
	top := q.a[0]
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a[last] = event{} // drop the payload reference for the GC
	q.a = q.a[:last]
	// Sift down, choosing the smallest of up to four children.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if q.a[c].before(q.a[min]) {
				min = c
			}
		}
		if !q.a[min].before(q.a[i]) {
			break
		}
		q.a[i], q.a[min] = q.a[min], q.a[i]
		i = min
	}
	return top
}

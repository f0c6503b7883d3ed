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
// The clock is the time of the last popped event. The queue relies on the
// discipline of its one user: Network.send increments seq before every push
// and clamps at to the current time, which Network.Run takes from pop. push
// panics on a violation instead of misordering.
//
// Why it pops the same (at, seq) sequence a heap does: within one tick's
// bucket, append order is ascending seq; buckets are visited in ascending
// at; the far heap orders by (at, seq); and pop returns the smaller of the
// first bucket's head and the far heap's top under event.before. A far event
// stays in the far heap even once the clock comes within a span of it, so
// two events at one tick that entered through different tiers are ordered by
// that comparison, not by migration.
//
// Buckets are intrusive lists through one slab of slots with a free list,
// so memory follows the peak queue depth, not span × peak bucket depth. The
// slab grows by chunks that double in size and are never copied, and nothing
// on the delivery path allocates once it has reached the run's high water.
type eventQueue struct {
	now     Time
	lastSeq uint64
	n       int

	// Bucket at&(queueSpan-1) lists the near events due at tick at, as slab
	// indices; occupied has its bit set while the list is non-empty.
	head, tail [queueSpan]int32
	occupied   [queueSpan / 64]uint64

	chunks [][]slot
	used   int32 // slots handed out so far; all chunks before the last are full
	free   int32 // head of the free list (0 = empty)

	far farHeap
}

// queueSpan is how many ticks ahead of the clock the bucket ring reaches; a
// power of two. No benchmark workload sends further than 57 ticks ahead.
const queueSpan = 256

// slot is a near event in the slab. Its tick is implied by its bucket.
type slot struct {
	seq  uint64
	sent Time
	msg  types.Message
	next int32 // the next slot of the bucket or the free list (0 = none)
}

// firstChunk is the slab's first chunk, in slots; chunk k holds firstChunk<<k.
// A small-n run (a sweep's n=7 run peaks below 300 events) should not pay
// for a large one's queue.
const firstChunk = 256

// slotAt returns slot i; the lists count slots from 1 so that 0 means none.
func (q *eventQueue) slotAt(i int32) *slot {
	j := uint32(i - 1)
	k := bits.Len32(j/firstChunk+1) - 1
	return &q.chunks[k][j-firstChunk*(1<<k-1)]
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return q.n }

// push inserts an event. Its time must not precede the clock and its seq
// must exceed every earlier push's.
func (q *eventQueue) push(e event) {
	if e.at < q.now || e.seq <= q.lastSeq {
		panic(fmt.Sprintf("sim: event queue contract broken: push(at %d, seq %d) with the clock at %d and the last seq %d",
			e.at, e.seq, q.now, q.lastSeq))
	}
	q.lastSeq = e.seq
	q.n++
	if e.at-q.now >= queueSpan {
		q.far.push(e)
		return
	}
	i := q.free
	var s *slot
	if i != 0 {
		s = q.slotAt(i)
		q.free = s.next
	} else {
		if int(q.used) == firstChunk*(1<<len(q.chunks)-1) {
			q.chunks = append(q.chunks, make([]slot, firstChunk<<len(q.chunks)))
		}
		q.used++
		i = q.used
		s = q.slotAt(i)
	}
	s.seq, s.sent, s.msg, s.next = e.seq, e.sent, e.msg, 0
	b := int(e.at) & (queueSpan - 1)
	if q.occupied[b/64]&(1<<(b%64)) != 0 {
		q.slotAt(q.tail[b]).next = i
	} else {
		q.occupied[b/64] |= 1 << (b % 64)
		q.head[b] = i
	}
	q.tail[b] = i
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
	i := q.head[b]
	s := q.slotAt(i)
	e := event{at: q.now + Time(ahead), seq: s.seq, sent: s.sent, msg: s.msg}
	if len(q.far.a) > 0 && q.far.a[0].before(e) {
		return q.popFar()
	}
	q.now = e.at
	if s.next == 0 {
		q.occupied[b/64] &^= 1 << (b % 64)
	} else {
		q.head[b] = s.next
	}
	s.msg = types.Message{} // drop the payload reference for the GC
	s.next = q.free
	q.free = i
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

package sim

import (
	"math"

	"repro/internal/types"
)

// deadMail holds the mail addressed to processes that were never
// registered. Network.Add refuses once Run has started, so such a letter can
// never be delivered: the queue would only pop it to drop it. It is counted
// here instead, and all the count needs is the letter's place in the queue's
// (time, seq) order and its kind.
//
// The count must come out as if every letter had been queued: a letter is
// dropped when it sorts before the last event the run pops, and when the
// queue drains every letter is. So whenever a pop moves the clock to a new
// tick the run settles, charging every letter due at an earlier tick, and
// when it ends it cuts the clock's tick at the last popped seq. Only that cut
// compares seqs.
//
// Letters due within queueSpan ticks of the clock go in per-tick chains of
// chunks, the eventQueue's layout without the messages: a letter is one word.
// Drained chains go onto a free list, so memory follows the peak number of
// letters in flight. The few due later go in far, unordered.
type deadMail struct {
	n       int  // letters not yet charged
	settled Time // every letter due before this tick has been charged

	// ticks[at&(queueSpan-1)] chains the letters due at tick at, which is
	// within a span of settled.
	ticks  [queueSpan]bucket
	blocks []*[blockChunks]deadChunk
	used   int32 // chunks handed out so far
	free   int32 // head of the free list (0 = empty)

	far    []farLetter
	farMin Time // the earliest tick in far

	kinds [types.KindCount]int // letters charged, by kindIndex
}

// deadChunkLen is the length of a dead-mail chunk, in letters.
const deadChunkLen = 32

// deadChunk is a run of one tick's letters, each seq<<8 | kindIndex, in
// ascending seq; or a link of the free list. The conversion below fails to
// compile once a kind index no longer fits the low byte.
type deadChunk struct {
	w    [deadChunkLen]uint64
	next int32 // the next chunk of the tick or the free list (0 = none)
	n    int32
}

const _ = uint8(types.KindCount - 1)

type farLetter struct {
	at Time
	w  uint64
}

// endOfTime is past every tick a letter can be due at.
const endOfTime = Time(math.MaxInt64)

func (d *deadMail) chunkAt(i int32) *deadChunk {
	j := uint32(i - 1)
	return &d.blocks[j/blockChunks][j%blockChunks]
}

func (d *deadMail) newChunk() (int32, *deadChunk) {
	i := d.free
	if i == 0 {
		if int(d.used) == len(d.blocks)*blockChunks {
			d.blocks = append(d.blocks, new([blockChunks]deadChunk))
		}
		d.used++
		return d.used, d.chunkAt(d.used)
	}
	c := d.chunkAt(i)
	d.free = c.next
	c.next, c.n = 0, 0
	return i, c
}

// push adds a letter sent at the settled tick: the run settles whenever a
// pop moves the clock and sends only while delivering the popped event.
func (d *deadMail) push(at Time, seq uint64, kind int) {
	d.n++
	w := seq<<8 | uint64(kind)
	if at-d.settled >= queueSpan {
		if len(d.far) == 0 || at < d.farMin {
			d.farMin = at
		}
		d.far = append(d.far, farLetter{at, w})
		return
	}
	bk := &d.ticks[int(at)&(queueSpan-1)]
	var c *deadChunk
	if bk.head == 0 {
		bk.head, c = d.newChunk()
		bk.tail = bk.head
	} else if c = d.chunkAt(bk.tail); c.n == deadChunkLen {
		tail := c
		bk.tail, c = d.newChunk()
		tail.next = bk.tail
	}
	c.w[c.n] = w
	c.n++
}

// settle charges every letter due before tick at and moves the clock there.
func (d *deadMail) settle(at Time) {
	if d.n > 0 {
		end := min(at, d.settled+queueSpan)
		for t := d.settled; t < end; t++ {
			bk := &d.ticks[int(t)&(queueSpan-1)]
			if bk.head == 0 {
				continue
			}
			for i := bk.head; i != 0; {
				c := d.chunkAt(i)
				for _, w := range c.w[:c.n] {
					d.charge(w)
				}
				i = c.next
			}
			d.chunkAt(bk.tail).next = d.free
			d.free = bk.head
			*bk = bucket{}
		}
		d.chargeFar(at, 0)
	}
	d.settled = at
}

// cut charges the letters due at the settled tick with a seq below seq. It
// ends the count: what it charges stays in place, and n is left as the
// number of letters that sort after the cut.
func (d *deadMail) cut(seq uint64) {
	if d.n == 0 {
		return
	}
	bk := d.ticks[int(d.settled)&(queueSpan-1)]
	for i := bk.head; i != 0; {
		c := d.chunkAt(i)
		for _, w := range c.w[:c.n] {
			if w>>8 < seq {
				d.charge(w)
			}
		}
		i = c.next
	}
	d.chargeFar(d.settled, seq)
}

// chargeFar charges the far letters that sort before (at, seq).
func (d *deadMail) chargeFar(at Time, seq uint64) {
	if len(d.far) == 0 || at < d.farMin {
		return
	}
	kept := d.far[:0]
	d.farMin = endOfTime
	for _, l := range d.far {
		if l.at < at || l.at == at && l.w>>8 < seq {
			d.charge(l.w)
			continue
		}
		kept = append(kept, l)
		d.farMin = min(d.farMin, l.at)
	}
	d.far = kept
}

func (d *deadMail) charge(w uint64) {
	d.kinds[w&0xff]++
	d.n--
}

// fold adds the charged letters to the run's drop counts.
func (d *deadMail) fold(s *Stats, tele *Telemetry) {
	for k, c := range d.kinds {
		s.Dropped += c
		if tele != nil {
			tele.Kinds[k].Dropped += int64(c)
		}
	}
}

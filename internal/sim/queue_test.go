package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/types"
)

// queueStep is one move of a queue script: push one event delay ticks past
// the clock, then pop up to pops events. A script obeys the discipline
// Network.send and Network.Run impose on the real queue — seq ascending with
// every push, every push at or after the last popped event's time — which is
// all an event queue has to support.
type queueStep struct {
	delay Time
	pops  int
}

// runQueueScript plays the script on an eventQueue and on the retained
// container/heap oracle, holds every pop and every Len equal, then drains
// both. It returns the final clock.
func runQueueScript(t testing.TB, steps []queueStep) Time {
	t.Helper()
	var (
		q      eventQueue
		oracle boxedQueue
		now    Time
		seq    uint64
		popped int
	)
	pop := func() {
		got, want := q.pop(), heap.Pop(&oracle).(event)
		if got != want {
			t.Fatalf("pop %d at clock %d: got (at %d, seq %d), want (at %d, seq %d)",
				popped, now, got.at, got.seq, want.at, want.seq)
		}
		if got.at < now {
			t.Fatalf("pop %d went back in time: at %d, clock %d", popped, got.at, now)
		}
		now = got.at
		popped++
	}
	for i, s := range steps {
		seq++
		e := event{at: now + s.delay, seq: seq, sent: now}
		q.push(e)
		heap.Push(&oracle, e)
		for p := 0; p < s.pops && oracle.Len() > 0; p++ {
			pop()
		}
		if q.Len() != oracle.Len() {
			t.Fatalf("step %d: Len %d, oracle %d", i, q.Len(), oracle.Len())
		}
	}
	for oracle.Len() > 0 {
		pop()
	}
	if q.Len() != 0 {
		t.Fatalf("queue still holds %d events after the oracle drained", q.Len())
	}
	return now
}

// randomQueueScript draws a script from the traffic the zoo produces: mostly
// the 1..20-tick default delays, with same-tick sends, delays around the
// span boundary and far-future holds (straggler lag, heal times) mixed in,
// and pop runs long enough to drain the queue and jump the clock.
func randomQueueScript(rng *rand.Rand, n int) []queueStep {
	steps := make([]queueStep, n)
	for i := range steps {
		var d Time
		switch c := rng.Intn(20); {
		case c < 12:
			d = 1 + Time(rng.Intn(20))
		case c < 14:
			d = 0
		case c < 16:
			d = queueSpan - 2 + Time(rng.Intn(5))
		case c < 18:
			d = Time(rng.Intn(3 * queueSpan))
		default:
			d = Time(rng.Intn(20 * queueSpan))
		}
		pops := rng.Intn(3)
		if rng.Intn(50) == 0 {
			pops = rng.Intn(400)
		}
		steps[i] = queueStep{delay: d, pops: pops}
	}
	return steps
}

// TestQueueMatchesOracle is the differential test: random scripts under the
// loop's discipline must pop exactly what container/heap pops.
func TestQueueMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		runQueueScript(t, randomQueueScript(rng, 1+rng.Intn(3000)))
	}
}

// repeatStep returns n copies of one step.
func repeatStep(s queueStep, n int) []queueStep {
	steps := make([]queueStep, n)
	for i := range steps {
		steps[i] = s
	}
	return steps
}

// queueCases are the named scripts: each aims at one boundary of a two-tier
// (bucket ring + far heap) queue. The short ones double as fuzz seeds.
func queueCases() map[string][]queueStep {
	cases := map[string][]queueStep{
		// Three events share tick 5; after the first pops (clock 5) a
		// zero-delay send joins the bucket being drained and must pop after
		// the two already there and before tick 6.
		"delay-0-into-draining-bucket": {
			{5, 0}, {5, 0}, {5, 0}, {6, 1}, {0, 0}, {0, 1}, {0, 0},
		},
		// The last near tick, the first far tick and the one after it, from
		// clock 0 and again from a clock that is not a multiple of the span.
		"span-boundary": {
			{queueSpan - 1, 0}, {queueSpan, 0}, {queueSpan + 1, 0}, {7, 1},
			{queueSpan + 1, 0}, {queueSpan, 0}, {queueSpan - 1, 0}, {0, 0},
		},
		// Tick 300 is far when the first event is pushed at clock 0 and near
		// when the later ones are pushed at clock 100: two tiers, one tick,
		// seq order. The fifth event (tick 400) enters far again and pops last.
		"same-tick-through-both-tiers": {
			{300, 0}, {100, 1}, {200, 0}, {200, 0}, {300, 0}, {200, 0},
		},
		// Nothing within a span of the clock, twice over: the clock must
		// jump to the far tier's head, and pushes after the jump are near.
		"idle-gap-far-only": {
			{1000, 0}, {1023, 0}, {1000, 3}, {3 * queueSpan, 0}, {2, 1}, {queueSpan + 1, 1}, {1, 0},
		},
	}
	// Steady 1..20 traffic against a standing backlog of 50, long enough for
	// the clock to pass ten spans (a pop advances it ~0.2 ticks): every ring
	// slot is reused ten times over while its neighbours are occupied.
	turns := make([]queueStep, 0, 15_050)
	for i := 0; i < cap(turns); i++ {
		turns = append(turns, queueStep{Time(1 + (7*i)%20), min(i/50, 1)})
	}
	cases["ten-turns-of-the-ring"] = turns
	// 10⁵ events at one tick (a rushed broadcast storm), drained through a
	// trickle of further same-tick sends.
	cases["one-tick-100k"] = append(repeatStep(queueStep{3, 0}, 100_000), repeatStep(queueStep{0, 2}, 1000)...)
	return cases
}

func TestQueueNamedCases(t *testing.T) {
	for name, steps := range queueCases() {
		t.Run(name, func(t *testing.T) {
			end := runQueueScript(t, steps)
			if name == "ten-turns-of-the-ring" && end < 10*queueSpan {
				t.Fatalf("the clock stopped at %d, short of ten spans", end)
			}
		})
	}
}

// Fuzz inputs are scripts of 3-byte steps: a 10-bit delay (0..1023 ticks,
// four spans) and a pop count 0..3, or — one code in 64 — a long drain.
const fuzzStepBytes = 3

func decodeQueueScript(data []byte) []queueStep {
	steps := make([]queueStep, 0, len(data)/fuzzStepBytes)
	for ; len(data) >= fuzzStepBytes; data = data[fuzzStepBytes:] {
		s := queueStep{delay: Time(data[0]) | Time(data[1]&3)<<8, pops: int(data[2] & 3)}
		if data[2]>>2 == 63 {
			s.pops = 500
		}
		steps = append(steps, s)
	}
	return steps
}

// encodeQueueScript is decodeQueueScript's inverse for scripts that fit the
// encoding; ok is false for the ones that do not.
func encodeQueueScript(steps []queueStep) (data []byte, ok bool) {
	for _, s := range steps {
		if s.delay > 1023 || s.pops > 3 {
			return nil, false
		}
		data = append(data, byte(s.delay), byte(s.delay>>8), byte(s.pops))
	}
	return data, true
}

// FuzzQueueOrder runs the differential driver over fuzzer-built scripts,
// seeded with the named cases that fit the encoding and the checked-in
// corpus (testdata/fuzz/FuzzQueueOrder: two random zoo scripts and six turns
// of the ring); CI fuzzes on from there.
func FuzzQueueOrder(f *testing.F) {
	for _, steps := range queueCases() {
		if data, ok := encodeQueueScript(steps); ok && len(data) < 1<<14 {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runQueueScript(t, decodeQueueScript(data))
	})
}

// TestQueuePanicsOnBrokenContract: an event in the past or a seq that does
// not ascend would be misordered silently; the queue refuses it, naming the
// event and its own clock.
func TestQueuePanicsOnBrokenContract(t *testing.T) {
	for name, bad := range map[string]event{
		"in the past":              {at: 9, seq: 3},
		"seq repeated":             {at: 10, seq: 2},
		"seq going back, far tier": {at: 10 + 10*queueSpan, seq: 1},
	} {
		t.Run(name, func(t *testing.T) {
			var q eventQueue
			q.push(event{at: 10, seq: 1})
			q.push(event{at: 12, seq: 2})
			q.pop() // the clock is now 10
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("push(at %d, seq %d) with the clock at 10 and the last seq 2", bad.at, bad.seq)
				if !strings.Contains(msg, want) {
					t.Fatalf("panic %q, want it to contain %q", msg, want)
				}
			}()
			q.push(bad)
		})
	}
}

// TestDenseLookupFallback: IDs beyond the dense table must still resolve
// through the registration map, and giant IDs must not blow up memory.
func TestDenseLookupFallback(t *testing.T) {
	net, err := New(Config{Scheduler: Immediate{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big := types.ProcessID(maxDenseID + 1000)
	small := types.ProcessID(3)
	sink := &sinkNode{id: big}
	if err := net.Add(&oneShotNode{id: small, peer: big}); err != nil {
		t.Fatal(err)
	}
	if err := net.Add(sink); err != nil {
		t.Fatal(err)
	}
	if len(net.dense) > maxDenseID+1 {
		t.Fatalf("dense table grew to %d entries for ID %v", len(net.dense), big)
	}
	stats, err := net.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sink.got != 1 || stats.Delivered != 1 {
		t.Fatalf("sparse-ID node received %d messages (delivered %d), want 1", sink.got, stats.Delivered)
	}
}

// oneShotNode sends one message to peer at start.
type oneShotNode struct {
	id, peer types.ProcessID
}

func (p *oneShotNode) ID() types.ProcessID { return p.id }
func (p *oneShotNode) Start() []types.Message {
	return []types.Message{{From: p.id, To: p.peer, Payload: &types.DecidePayload{V: types.One}}}
}
func (p *oneShotNode) Deliver(types.Message) []types.Message { return nil }
func (p *oneShotNode) Done() bool                            { return false }

// sinkNode counts deliveries.
type sinkNode struct {
	id  types.ProcessID
	got int
}

func (s *sinkNode) ID() types.ProcessID                   { return s.id }
func (s *sinkNode) Start() []types.Message                { return nil }
func (s *sinkNode) Deliver(types.Message) []types.Message { s.got++; return nil }
func (s *sinkNode) Done() bool                            { return false }

// boxedQueue replicates the seed implementation's container/heap event
// queue: the oracle of the differential tests above.
type boxedQueue []event

func (q boxedQueue) Len() int { return len(q) }
func (q boxedQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q boxedQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *boxedQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *boxedQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// BenchmarkQueuePushPop measures one push and one pop against a standing
// backlog, on the traffic the benchmark workloads were measured to produce:
// the peak queue depths of smr_plain_n16 and consensus_n64, delays of 1..20
// ticks, and a clock that advances with every pop. Expect 0 allocs/op: the
// slab reaches its high water while the backlog is built.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, backlog := range []int{4_384, 117_373} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var delays [1024]Time
			for i := range delays {
				delays[i] = 1 + Time(rng.Intn(20))
			}
			var (
				q   eventQueue
				now Time
				seq uint64
			)
			step := func(pops int) {
				seq++
				q.push(event{at: now + delays[seq%uint64(len(delays))], seq: seq, sent: now})
				for ; pops > 0; pops-- {
					now = q.pop().at
				}
			}
			for i := 0; i < backlog; i++ {
				step(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(1)
			}
		})
	}
}

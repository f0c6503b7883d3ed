package sim

// Dead-mail accounting: mail addressed to a process that was never
// registered can never be delivered, and a run counts every copy in
// Stats.Dropped and the per-kind Dropped when it is sent, whether or not the
// run gets as far as its delivery time; such mail alone never makes a run
// exhausted. A run with an enabled recorder still queues it for its drop
// event: the named cases pin the counts, and the fuzz target holds every
// script equal with the recorder on and off.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/types"
)

// deadMailScript is one run of the driver. Processes 1..8 exist; the ones
// live names are registered, and mail to the others is dead. Every node
// sends start messages at Start and fan messages on each of its first
// rounds deliveries. The i-th message emitted in the run goes where
// sends[i%len(sends)] says, after that send's delay.
type deadMailScript struct {
	live      uint8 // bit i set: process i+1 is registered
	start     int   // messages per node at Start, 1..4
	fan       int   // messages per emitting delivery, 0..3
	rounds    int   // emitting deliveries per node, 0..15
	halt      bool  // a node is done once its emitting deliveries are spent
	budget    int   // MaxDeliveries, 1..65536
	stopAfter int   // stop after this many deliveries (0 = never)
	jitter    int   // each delay gains rng.Intn(jitter+1) ticks, jitter 0..3
	dupEvery  int   // every dupEvery-th send is duplicated (0 = never)
	dupCode   int   // index into dupDelays: the duplicate's lag past the primary
	sends     []mailSend
}

// mailSend is one entry of a script's send pattern; delay is decoded by
// delayOf.
type mailSend struct {
	to    types.ProcessID
	delay byte
}

// dupDelays are the duplicate lags a script can pick: same tick, short,
// at and past the ring span, and a far hold.
var dupDelays = [8]Time{0, 1, 3, 17, queueSpan - 1, queueSpan, queueSpan + 44, 1000}

// delayOf decodes a delay byte: 0..191 are the 0..23-tick delays of the
// default schedules, 192..223 straddle the ring span, 224..254 are far holds
// of 100..3100 ticks, and 255 is a scheduler Drop.
func delayOf(c byte) Time {
	switch {
	case c == 255:
		return Drop
	case c >= 224:
		return Time(c-223) * 100
	case c >= 192:
		return queueSpan - 16 + Time(c-192)
	default:
		return Time(c % 24)
	}
}

// Script bytes: live; start-1 | fan<<2 | rounds<<4; budget-1 in two bytes,
// low first; stopAfter; jitter | halt<<2 | dupEvery<<3 | dupCode<<5; then
// one (to, delay) pair per send, to's low three bits naming process to-1.
const deadMailHeader = 6

func decodeDeadMail(data []byte) (deadMailScript, bool) {
	if len(data) < deadMailHeader+2 {
		return deadMailScript{}, false
	}
	s := deadMailScript{
		live:      data[0] | 1, // process 1 always runs
		start:     1 + int(data[1]&3),
		fan:       int(data[1] >> 2 & 3),
		rounds:    int(data[1] >> 4),
		budget:    1 + (int(data[2]) | int(data[3])<<8),
		stopAfter: int(data[4]),
		jitter:    int(data[5] & 3),
		halt:      data[5]&4 != 0,
		dupEvery:  int(data[5] >> 3 & 3),
		dupCode:   int(data[5] >> 5),
	}
	for p := data[deadMailHeader:]; len(p) >= 2; p = p[2:] {
		s.sends = append(s.sends, mailSend{to: types.ProcessID(p[0]&7) + 1, delay: p[1]})
	}
	return s, true
}

func (s deadMailScript) encode() []byte {
	b := s.budget - 1
	data := []byte{
		s.live,
		byte(s.start-1) | byte(s.fan)<<2 | byte(s.rounds)<<4,
		byte(b), byte(b >> 8),
		byte(s.stopAfter),
		byte(s.jitter) | byte(s.dupEvery)<<3 | byte(s.dupCode)<<5,
	}
	if s.halt {
		data[5] |= 4
	}
	for _, m := range s.sends {
		data = append(data, byte(m.to-1), m.delay)
	}
	return data
}

// mailPayloads are the kinds a script's messages cycle through, so the
// per-kind counters see more than one kind.
var mailPayloads = [3]types.Payload{
	&types.PlainPayload{Round: 1, Step: types.Step1},
	&types.DecidePayload{V: types.One},
	&types.CoinSharePayload{Round: 1},
}

// mailRun is the state the nodes and the scheduler of one run share.
type mailRun struct {
	s         *deadMailScript
	emitted   int // messages emitted so far; picks the next send
	scheduled int // Deliver calls so far; picks the next delay
	dups      int // duplication offers so far
	delivered int
}

type mailNode struct {
	id   types.ProcessID
	run  *mailRun
	left int
}

func (p *mailNode) ID() types.ProcessID { return p.id }

func (p *mailNode) emit(count int) []types.Message {
	var out []types.Message
	for i := 0; i < count; i++ {
		r := p.run
		snd := r.s.sends[r.emitted%len(r.s.sends)]
		out = append(out, types.Message{From: p.id, To: snd.to, Payload: mailPayloads[r.emitted%len(mailPayloads)]})
		r.emitted++
	}
	return out
}

func (p *mailNode) Start() []types.Message { return p.emit(p.run.s.start) }

func (p *mailNode) Deliver(types.Message) []types.Message {
	p.run.delivered++
	if p.left == 0 {
		return nil
	}
	p.left--
	return p.emit(p.run.s.fan)
}

func (p *mailNode) Done() bool { return p.run.s.halt && p.left == 0 }

// Deliver implements Scheduler: the pattern's delay, plus a draw from the
// run's rng so that every later draw moves if a call is skipped.
func (r *mailRun) Deliver(_ types.Message, now Time, _ uint64, rng *rand.Rand) Time {
	d := delayOf(r.s.sends[r.scheduled%len(r.s.sends)].delay)
	r.scheduled++
	if d == Drop {
		return Drop
	}
	return now + d + Time(rng.Intn(r.s.jitter+1))
}

// Duplicate implements Duplicator.
func (r *mailRun) Duplicate(_ types.Message, at, _ Time, _ *rand.Rand) (Time, bool) {
	r.dups++
	if r.s.dupEvery == 0 || r.dups%r.s.dupEvery != 0 {
		return 0, false
	}
	return at + dupDelays[r.s.dupCode], true
}

// runDeadMail plays a script on a new network and summarizes its Stats and
// per-kind telemetry; the network is returned for inspection.
func runDeadMail(t testing.TB, s deadMailScript, traced bool) (string, *Network) {
	t.Helper()
	return playDeadMail(t, nil, s, traced)
}

// playDeadMail is runDeadMail on n re-armed by Reset when n is not nil: the
// nodes registered there join the script's run with its rounds to spend.
func playDeadMail(t testing.TB, n *Network, s deadMailScript, traced bool) (string, *Network) {
	t.Helper()
	run := &mailRun{s: &s}
	cfg := Config{
		Scheduler:     run,
		Seed:          int64(len(s.sends)),
		MaxDeliveries: s.budget,
		Telemetry:     NewTelemetry(),
		Sizer:         func(m types.Message) int { return 1 + int(m.To) },
	}
	if traced {
		cfg.Recorder = trace.New(0)
	}
	if n != nil {
		if err := n.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		for _, id := range n.order {
			nd := n.nodes[id].(*mailNode)
			nd.run, nd.left = run, s.rounds
		}
	} else {
		var err error
		if n, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		for id := types.ProcessID(1); id <= 8; id++ {
			if s.live&(1<<(id-1)) != 0 {
				if err := n.Add(&mailNode{id: id, run: run, left: s.rounds}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	stop := func() bool { return s.stopAfter > 0 && run.delivered >= s.stopAfter }
	stats, err := n.Run(stop)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d delivered=%d dropped=%d spoofed=%d bytes=%d end=%d exhausted=%v",
		stats.Sent, stats.Delivered, stats.Dropped, stats.Spoofed, stats.Bytes, stats.End, stats.Exhausted)
	for k, ks := range cfg.Telemetry.Kinds {
		if ks.Sent != 0 || ks.Dropped != 0 {
			l := ks.Latency
			fmt.Fprintf(&b, " k%d=%d/%d/%d/%d/%d,%d,%d,%d", k, ks.Sent, ks.Delivered, ks.Dropped, ks.Bytes, l.Count, l.Sum, l.Min, l.Max)
		}
	}
	return b.String(), n
}

// checkDeadMail runs a script with the recorder on and off: the summaries
// must match, and the traced run's DROP events plus the dead letters it
// left queued must be exactly what its Stats.Dropped counts.
func checkDeadMail(t testing.TB, s deadMailScript) string {
	t.Helper()
	plain, _ := runDeadMail(t, s, false)
	traced, n := runDeadMail(t, s, true)
	if plain != traced {
		t.Fatalf("recorder off and on disagree:\n off %s\n on  %s", plain, traced)
	}
	if drops := len(eventsOfKind(n.cfg.Recorder, trace.KindDrop)); drops+n.dead != n.stats.Dropped {
		t.Fatalf("%d DROP events and %d dead letters queued, Stats.Dropped %d", drops, n.dead, n.stats.Dropped)
	}
	return plain
}

// farAhead mails dead processes 3 and 4 300, 1000, 256 and 260 ticks ahead
// and live ones 1..5 and 400 ticks ahead.
var farAhead = []mailSend{{3, 226}, {2, 3}, {3, 233}, {1, 5}, {3, 208}, {2, 227}, {4, 212}, {2, 1}}

// deadMailCases are the named scripts, each aimed at one way the dead-mail
// count can go wrong, with their summaries. They are also FuzzDeadMail's
// checked-in corpus.
func deadMailCases() map[string]struct {
	s    deadMailScript
	want string
} {
	type c = struct {
		s    deadMailScript
		want string
	}
	return map[string]c{
		// Processes 1 and 2 each send to 2, 3, 1, 3 at Start, all due at
		// tick 2: seqs 1..8 alternate live and dead. The stop fires after
		// the second delivery (seq 3); all four dead letters count, seqs
		// 4, 6, 8 too, though they sort after it.
		"stop-mid-tick": {deadMailScript{
			live: 0b011, start: 4, budget: 100, stopAfter: 2,
			sends: []mailSend{{2, 2}, {3, 2}, {1, 2}, {3, 2}},
		}, "sent=8 delivered=2 dropped=4 spoofed=0 bytes=26 end=2 exhausted=false k4=2/1/1/6/1,2,2,2 k5=3/0/2/11/0,0,0,0 k6=3/1/1/9/1,2,2,2"},
		// Processes 1..3 each send four messages at Start, all due at
		// tick 2, to live and halting processes and to dead process 4. A
		// node halts after its first delivery. The budget of three
		// deliveries ends the run after seq 6: the halted drop of seq 3
		// counts, and so do all four dead letters (seqs 2, 5, 8 and 11).
		"budget-mid-tick": {deadMailScript{
			live: 0b111, start: 4, rounds: 1, halt: true, budget: 3,
			sends: []mailSend{{2, 2}, {4, 2}, {2, 2}, {3, 2}, {4, 2}, {1, 2}},
		}, "sent=12 delivered=3 dropped=5 spoofed=0 bytes=44 end=2 exhausted=true k4=4/1/1/10/1,2,2,2 k5=4/0/4/20/0,0,0,0 k6=4/2/0/14/2,4,2,2"},
		// Process 1 mails itself (tick 1) and dead process 2 (tick 5). The
		// budget of one delivery is reached with only the dead letter
		// queued: it counts as a drop, and the run is not exhausted.
		"budget-with-only-dead-mail-queued": {deadMailScript{
			live: 0b001, start: 2, budget: 1,
			sends: []mailSend{{1, 1}, {2, 5}},
		}, "sent=2 delivered=1 dropped=1 spoofed=0 bytes=5 end=1 exhausted=false k5=1/0/1/3/0,0,0,0 k6=1/1/0/2/1,1,1,1"},
		// Process 1 mails dead process 2 and then itself, both at tick 0.
		// The one delivery spends the budget and empties the queue; the
		// dead letter counts and the run is not exhausted.
		"budget-on-last-delivery": {deadMailScript{
			live: 0b001, start: 2, budget: 1,
			sends: []mailSend{{2, 0}, {1, 0}},
		}, "sent=2 delivered=1 dropped=1 spoofed=0 bytes=5 end=0 exhausted=false k5=1/1/0/2/1,0,0,0 k6=1/0/1/3/0,0,0,0"},
		// Dead letters 300, 1000, 256 and 260 ticks ahead among live hops
		// of 1..5 and 400 ticks. The stop at tick 812 comes after eleven
		// of them and before five (due at ticks 1000..1418); all sixteen
		// count.
		"dead-mail-far-ahead": {deadMailScript{
			live: 0b011, start: 2, fan: 2, rounds: 10, budget: 1000, stopAfter: 14,
			sends: farAhead,
		}, "sent=32 delivered=14 dropped=16 spoofed=0 bytes=112 end=812 exhausted=false k4=10/4/5/35/4,409,1,400 k5=11/5/5/38/5,412,1,400 k6=11/5/6/39/5,414,1,400"},
		// The same traffic left to drain: the same sixteen count.
		"dead-mail-far-ahead-drained": {deadMailScript{
			live: 0b011, start: 2, fan: 2, rounds: 10, budget: 1000,
			sends: farAhead,
		}, "sent=32 delivered=16 dropped=16 spoofed=0 bytes=112 end=823 exhausted=false k4=10/5/5/35/5,809,1,400 k5=11/6/5/38/6,413,1,400 k6=11/5/6/39/5,414,1,400"},
		// Every send is duplicated three ticks later, dead mail included;
		// the stop falls between some primaries and their duplicates, and
		// every dead copy counts.
		"duplicated-dead-mail": {deadMailScript{
			live: 0b0011, start: 3, fan: 2, rounds: 6, budget: 1000, stopAfter: 9, jitter: 1,
			dupEvery: 1, dupCode: 2,
			sends: []mailSend{{3, 2}, {2, 1}, {4, 4}, {1, 2}, {3, 0}, {1, 1}},
		}, "sent=48 delivered=9 dropped=24 spoofed=0 bytes=160 end=5 exhausted=false k4=16/3/8/56/3,9,2,5 k5=16/3/8/56/3,8,1,5 k6=16/3/8/48/3,10,2,5"},
		// A dead letter at tick 1, then a 200-tick relay with no dead mail
		// for 800 ticks (its second message each hop is a scheduler Drop).
		// At tick 801 a dead letter for tick 806 goes out beside a live one
		// for 802, whose delivery sends a dead letter for 803; the stop
		// there leaves both in flight, and all three dead letters count.
		"gap-then-dead-mail": {deadMailScript{
			live: 0b011, start: 1, fan: 2, rounds: 15, budget: 1000, stopAfter: 6,
			sends: []mailSend{{3, 1}, {2, 1}, {1, 225}, {1, 255}, {2, 225}, {1, 255}, {1, 225}, {1, 255}, {2, 225}, {1, 255}, {3, 5}, {1, 1}},
		}, "sent=14 delivered=6 dropped=7 spoofed=0 bytes=38 end=802 exhausted=false k4=4/3/1/9/3,401,1,200 k5=5/2/2/15/2,201,1,200 k6=5/1/4/14/1,200,200,200"},
	}
}

// TestDeadMailAccounting pins the named scripts' Stats and per-kind counts.
func TestDeadMailAccounting(t *testing.T) {
	for name, c := range deadMailCases() {
		t.Run(name, func(t *testing.T) {
			if got := checkDeadMail(t, c.s); got != c.want {
				t.Errorf("summary:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}

// TestDeadMailSkipsQueue: without a recorder no message to a
// never-registered process is pushed onto the event queue, duplicates
// included; with one, every message is.
func TestDeadMailSkipsQueue(t *testing.T) {
	s := deadMailScript{live: 0b001, start: 4, budget: 10, dupEvery: 1, dupCode: 3,
		sends: []mailSend{{2, 3}, {3, 226}, {4, 255}, {5, 0}}}
	for _, traced := range []bool{false, true} {
		_, n := runDeadMail(t, s, traced)
		// Four sends, one of them a scheduler Drop, and a duplicate of each
		// of the other three: seqs 1..7, all to processes 2..5.
		pushed := n.queue.lastSeq
		if want := map[bool]uint64{false: 0, true: 7}[traced]; pushed != want || n.stats.Dropped != 7 {
			t.Errorf("traced %v: last pushed seq %d, dropped %d; want %d and 7", traced, pushed, n.stats.Dropped, want)
		}
	}
}

// TestDeadMailCorpusCurrent: the checked-in seed corpus is the named
// scripts' bytes, so an edited case cannot leave a stale seed behind.
func TestDeadMailCorpusCurrent(t *testing.T) {
	for name, c := range deadMailCases() {
		if s, _ := decodeDeadMail(c.s.encode()); !reflect.DeepEqual(s, c.s) {
			t.Errorf("%s does not survive encoding: %+v", name, s)
		}
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDeadMail", name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(c.s.encode())); string(raw) != want {
			t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, want)
		}
	}
}

// FuzzDeadMail holds fuzzer-built scripts equal with the recorder on and
// off; its seed corpus is the named cases.
func FuzzDeadMail(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, ok := decodeDeadMail(data); ok {
			checkDeadMail(t, s)
		}
	})
}

// BenchmarkSimDeadMailDelivery is BenchmarkSimDisabledDelivery's relay loop
// with every relay also mailing process 3, which never runs. That mail is
// counted when sent and never queued, so the loop stays at 0 allocs/op (CI
// gates it with the other Delivery benchmarks).
func BenchmarkSimDeadMailDelivery(b *testing.B) {
	n, err := New(Config{
		Scheduler:     UniformDelay{Min: 1, Max: 20},
		Seed:          1,
		MaxDeliveries: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []*relayNode{{id: 1, to: 2, dead: 3}, {id: 2, to: 1, dead: 3}} {
		if err := n.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	stats, err := n.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Delivered != b.N || stats.Sent <= 2*b.N {
		b.Fatalf("delivered %d of %d sent, want %d of more than %d", stats.Delivered, stats.Sent, b.N, 2*b.N)
	}
}

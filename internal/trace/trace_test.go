package trace

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/types"
)

func TestZeroRecorderDisabled(t *testing.T) {
	var r Recorder
	r.Record(Event{Kind: KindNote})
	if r.Enabled() || r.Events() != nil {
		t.Error("zero Recorder must be inert")
	}
	var nilR *Recorder
	if nilR.Enabled() {
		t.Error("nil Recorder must report disabled")
	}
	nilR.Record(Event{}) // must not panic
	if nilR.Events() != nil {
		t.Error("nil Recorder must be inert")
	}
}

func TestRecordAndQuery(t *testing.T) {
	r := New(0)
	r.Record(Event{Time: 1, Kind: KindSend, P: 1})
	r.Record(Event{Time: 2, Kind: KindDeliver, P: 2})
	r.Record(Event{Time: 3, Kind: KindDecide, P: 1, V: types.One, Round: 2})
	if got := len(r.Events()); got != 3 {
		t.Fatalf("%d events, want 3", got)
	}
	if got := r.Filter(func(e Event) bool { return e.Kind == KindDecide }); len(got) != 1 || got[0].V != types.One {
		t.Errorf("Filter(KindDecide) = %v", got)
	}
	if got := r.Filter(func(e Event) bool { return e.P == 1 }); len(got) != 2 {
		t.Errorf("Filter(P = 1) returned %d events, want 2", len(got))
	}
	if got := r.Filter(func(e Event) bool { return e.Time > 1 }); len(got) != 2 {
		t.Errorf("Filter returned %d events, want 2", len(got))
	}
}

func TestLimit(t *testing.T) {
	r := New(2)
	for i := 0; i < 5; i++ {
		r.Record(Event{Time: int64(i), Kind: KindNote})
	}
	if got := r.Events(); len(got) != 2 || got[1].Time != 1 {
		t.Errorf("events = %v, want the first 2", got)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	r := New(0)
	r.Record(Event{Time: 1, Kind: KindNote})
	evs := r.Events()
	evs[0].Time = 99
	if r.Events()[0].Time != 1 {
		t.Error("Events must return a copy")
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: KindNote})
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()); got != 800 {
		t.Errorf("%d events, want 800", got)
	}
}

func TestEventString(t *testing.T) {
	tests := []struct {
		name string
		e    Event
		want []string
	}{
		{
			"send",
			Event{Time: 5, Kind: KindSend, P: 1, Msg: types.Message{From: 1, To: 2, Payload: &types.DecidePayload{V: types.One}}},
			[]string{"SEND", "p1", "p1->p2", "DECIDE[1]"},
		},
		{
			"decide",
			Event{Time: 9, Kind: KindDecide, P: 3, V: types.Zero, Round: 4},
			[]string{"DECIDE", "p3", "v=0", "round=4"},
		},
		{
			"round",
			Event{Kind: KindRound, P: 2, Round: 7},
			[]string{"ROUND", "round=7"},
		},
		{
			"coin",
			Event{Kind: KindCoin, P: 2, Round: 3, V: types.One},
			[]string{"COIN", "v=1", "round=3"},
		},
		{
			"note",
			Event{Kind: KindNote, P: 1, Note: "hello"},
			[]string{"NOTE", "(hello)"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := tt.e.String()
			for _, want := range tt.want {
				if !strings.Contains(s, want) {
					t.Errorf("String() = %q missing %q", s, want)
				}
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if KindSend.String() != "SEND" || KindRBC.String() != "RBC" {
		t.Error("unexpected kind names")
	}
	// Unknown kinds render to one stable constant — the same string for
	// every out-of-range value (including 0), so no formatting, no
	// allocation, and no attacker-controlled bytes in a dump.
	if got := Kind(222).String(); got != kindUnknown {
		t.Errorf("unknown kind String() = %q, want %q", got, kindUnknown)
	}
	if got := Kind(0).String(); got != kindUnknown {
		t.Errorf("zero kind String() = %q, want %q", got, kindUnknown)
	}
}

// TestKindStringAllocFree pins the dense-array rendering at zero
// allocations for known and unknown kinds alike (the map+Sprintf rendering
// it replaced allocated on every unknown kind).
func TestKindStringAllocFree(t *testing.T) {
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		sink = KindSend.String()
		sink = KindNote.String()
		sink = Kind(222).String()
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("Kind.String cost %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkKindString measures the dense-array name lookup (compare against
// a map probe by checking out the previous revision).
func BenchmarkKindString(b *testing.B) {
	b.ReportAllocs()
	var sink string
	for i := 0; i < b.N; i++ {
		sink = Kind(i % 11).String()
	}
	_ = sink
}

func TestDump(t *testing.T) {
	r := New(0)
	r.Record(Event{Time: 1, Kind: KindNote, P: 1, Note: "a"})
	r.Record(Event{Time: 2, Kind: KindNote, P: 2, Note: "b"})
	d := r.Dump()
	if strings.Count(d, "\n") != 2 {
		t.Errorf("Dump = %q, want 2 lines", d)
	}
	if !strings.Contains(d, "(a)") || !strings.Contains(d, "(b)") {
		t.Errorf("Dump missing notes: %q", d)
	}
}

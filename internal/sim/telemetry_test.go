package sim

// Telemetry plane tests: per-kind charging agrees with Stats, phase marks
// flow through Now/Observe, causal parents stamp SEND events with the
// delivery that triggered them, and — the contract CI gates — the delivery
// path with telemetry AND tracing disabled allocates nothing.

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/types"
)

// relayNode forwards every delivery to a fixed peer, and also to dead when
// set, recycling its output buffer: an endless two-node ping-pong with a
// zero-allocation steady state.
type relayNode struct {
	id, to, dead types.ProcessID
	OutBuffer
}

func (r *relayNode) ID() types.ProcessID { return r.id }
func (r *relayNode) Start() []types.Message {
	return []types.Message{{From: r.id, To: r.to, Payload: &types.PlainPayload{Round: 1, Step: types.Step1}}}
}
func (r *relayNode) Deliver(m types.Message) []types.Message {
	out := append(r.Take(), types.Message{From: r.id, To: r.to, Payload: m.Payload})
	if r.dead != 0 {
		out = append(out, types.Message{From: r.id, To: r.dead, Payload: m.Payload})
	}
	return out
}
func (r *relayNode) Done() bool { return false }

// relayPair builds a two-node relay network.
func relayPair(tb testing.TB, cfg Config) *Network {
	tb.Helper()
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := n.Add(&relayNode{id: 1, to: 2}); err != nil {
		tb.Fatal(err)
	}
	if err := n.Add(&relayNode{id: 2, to: 1}); err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestTelemetryMatchesStats: the per-kind totals sum to exactly the run's
// Stats counters, bytes included, and every delivered message contributed
// one latency observation.
func TestTelemetryMatchesStats(t *testing.T) {
	tele := NewTelemetry()
	n := relayPair(t, Config{
		Scheduler:     UniformDelay{Min: 1, Max: 20},
		Seed:          3,
		MaxDeliveries: 500,
		Telemetry:     tele,
		Sizer:         func(types.Message) int { return 7 },
	})
	stats, err := n.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sent, delivered, dropped, bytes, latObs int64
	for k := range tele.Kinds {
		sent += tele.Kinds[k].Sent
		delivered += tele.Kinds[k].Delivered
		dropped += tele.Kinds[k].Dropped
		bytes += tele.Kinds[k].Bytes
		latObs += tele.Kinds[k].Latency.Count
	}
	if sent != int64(stats.Sent) || delivered != int64(stats.Delivered) || dropped != int64(stats.Dropped) {
		t.Errorf("telemetry totals (%d/%d/%d) != stats (%d/%d/%d)",
			sent, delivered, dropped, stats.Sent, stats.Delivered, stats.Dropped)
	}
	if bytes != stats.Bytes || bytes != tele.TotalBytes() {
		t.Errorf("telemetry bytes %d (total %d) != stats bytes %d", bytes, tele.TotalBytes(), stats.Bytes)
	}
	if latObs != int64(stats.Delivered) {
		t.Errorf("latency observations %d != deliveries %d", latObs, stats.Delivered)
	}
	// All traffic in this fixture is PLAIN; the dense table must show it
	// there and nowhere else.
	if tele.Kinds[types.KindPlain].Sent != sent {
		t.Errorf("PLAIN sent = %d, want all %d", tele.Kinds[types.KindPlain].Sent, sent)
	}
}

// TestTelemetrySpoofAndDropCharged: spoofed and scheduler-dropped messages
// charge the per-kind Dropped counter.
func TestTelemetrySpoofAndDropCharged(t *testing.T) {
	tele := NewTelemetry()
	n := newNet(t, Config{Scheduler: Compose{
		Base:  Immediate{},
		Rules: []Rule{DropLinks([2]types.ProcessID{1, 2})},
	}, Telemetry: tele})
	ps := types.Processes(3)
	for i := range ps {
		nd := &pingNode{id: ps[i], peers: ps}
		if i == 0 {
			nd.spoofAs = 3 // p1 also forges one message as p3
		}
		if err := n.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := n.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spoofed != 1 {
		t.Fatalf("Spoofed = %d, want 1", stats.Spoofed)
	}
	var dropped int64
	for k := range tele.Kinds {
		dropped += tele.Kinds[k].Dropped
	}
	if dropped != int64(stats.Dropped) {
		t.Errorf("telemetry dropped %d != stats dropped %d", dropped, stats.Dropped)
	}
}

// TestCausalParentStamping: with a Recorder attached, every DELIVER event
// carries its wire seq, and every SEND emitted from a delivery handler
// carries that delivery's seq as Parent; Start-emitted sends have Parent 0.
func TestCausalParentStamping(t *testing.T) {
	rec := trace.New(0)
	n := relayPair(t, Config{
		Scheduler:     UniformDelay{Min: 1, Max: 5},
		Seed:          11,
		MaxDeliveries: 50,
		Recorder:      rec,
	})
	if _, err := n.Run(nil); err != nil {
		t.Fatal(err)
	}
	deliverSeq := make(map[uint64]bool)
	for _, e := range eventsOfKind(rec, trace.KindDeliver) {
		if e.Seq == 0 {
			t.Fatalf("DELIVER without seq: %v", e)
		}
		deliverSeq[e.Seq] = true
	}
	sends := eventsOfKind(rec, trace.KindSend)
	var rootSends, chained int
	for _, e := range sends {
		if e.Seq == 0 {
			t.Fatalf("SEND without seq: %v", e)
		}
		if e.Parent == 0 {
			rootSends++
			continue
		}
		if !deliverSeq[e.Parent] {
			t.Fatalf("SEND parent %d is not a delivered seq: %v", e.Parent, e)
		}
		chained++
	}
	if rootSends != 2 {
		t.Errorf("root sends = %d, want 2 (one Start emission per node)", rootSends)
	}
	if chained == 0 {
		t.Error("no causally chained sends recorded")
	}
}

// TestTelemetryPhaseObserve: Observe charges the phase histogram with
// now-start in the network's clock.
func TestTelemetryPhaseObserve(t *testing.T) {
	tele := NewTelemetry()
	tele.now = 100
	tele.Observe(PhaseRoundDecide, 60)
	if got := tele.Phases[PhaseRoundDecide].Sum; got != 40 {
		t.Errorf("phase sum = %d, want 40", got)
	}
	// Nil sink: marks and observations are free no-ops.
	var nilTele *Telemetry
	if nilTele.Now() != 0 {
		t.Error("nil sink Now() != 0")
	}
	nilTele.Observe(PhaseRoundDecide, 0) // must not panic
	nilTele.Merge(tele)                  // must not panic
}

// BenchmarkSimDisabledDelivery is the CI-gated number for the observability
// plane: the raw network delivery loop with telemetry AND tracing disabled
// (both nil) must stay at 0 allocs/op — the seam is free when unused.
func BenchmarkSimDisabledDelivery(b *testing.B) {
	n := relayPair(b, Config{
		Scheduler:     UniformDelay{Min: 1, Max: 20},
		Seed:          1,
		MaxDeliveries: b.N,
	})
	b.ReportAllocs()
	b.ResetTimer()
	stats, err := n.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Delivered != b.N {
		b.Fatalf("delivered %d, want %d", stats.Delivered, b.N)
	}
}

// BenchmarkSimTelemetryOverhead is the same loop with the sink attached —
// the price of enabling the plane (amortized-zero allocations: histogram
// buckets grow once, integer charging thereafter).
func BenchmarkSimTelemetryOverhead(b *testing.B) {
	n := relayPair(b, Config{
		Scheduler:     UniformDelay{Min: 1, Max: 20},
		Seed:          1,
		MaxDeliveries: b.N,
		Telemetry:     NewTelemetry(),
		Sizer:         func(types.Message) int { return 7 },
	})
	b.ReportAllocs()
	b.ResetTimer()
	stats, err := n.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	if stats.Delivered != b.N {
		b.Fatalf("delivered %d, want %d", stats.Delivered, b.N)
	}
}

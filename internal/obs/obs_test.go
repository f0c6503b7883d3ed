package obs_test

// Critical-path tests: a hand-built trace with known timings pins the exact
// decomposition, and a real traced consensus run pins the structural
// invariants (every decision reconstructs to a chain whose wire + think
// times sum to the decision time).

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/types"
)

// TestAnalyzeSyntheticChain: a three-event causal chain decomposes exactly.
//
//	t=0  p1 sends seq 1 (Start)          wire 5
//	t=5  p2 delivers seq 1, thinks 2
//	t=7  p2 sends seq 2 (parent 1)       wire 4
//	t=11 p1 delivers seq 2, decides
func TestAnalyzeSyntheticChain(t *testing.T) {
	pay := &types.DecidePayload{V: types.One}
	events := []trace.Event{
		{Time: 0, Kind: trace.KindSend, P: 1, Seq: 1, Msg: types.Message{From: 1, To: 2, Payload: pay}},
		{Time: 5, Kind: trace.KindDeliver, P: 2, Seq: 1, Msg: types.Message{From: 1, To: 2, Payload: pay}},
		{Time: 7, Kind: trace.KindSend, P: 2, Seq: 2, Parent: 1, Msg: types.Message{From: 2, To: 1, Payload: pay}},
		{Time: 11, Kind: trace.KindDeliver, P: 1, Seq: 2, Msg: types.Message{From: 2, To: 1, Payload: pay}},
		{Time: 11, Kind: trace.KindDecide, P: 1, Parent: 2, V: types.One, Round: 1},
	}
	r := obs.Analyze(events)
	if len(r.Decisions) != 1 {
		t.Fatalf("decisions = %d, want 1", len(r.Decisions))
	}
	d := r.Decisions[0]
	if d.P != 1 || d.V != types.One || d.At != 11 || d.Truncated {
		t.Fatalf("decision = %+v", d)
	}
	if d.Hops != 2 {
		t.Fatalf("hops = %d, want 2", d.Hops)
	}
	if d.Wire != 9 || d.Think != 2 {
		t.Fatalf("wire/think = %d/%d, want 9/2", d.Wire, d.Think)
	}
	if d.Wire+d.Think != d.At {
		t.Fatalf("wire+think = %d, want decision time %d", d.Wire+d.Think, d.At)
	}
	// Causal order: root hop first.
	if d.Path[0].Seq != 1 || d.Path[1].Seq != 2 {
		t.Fatalf("path order = %d,%d, want 1,2", d.Path[0].Seq, d.Path[1].Seq)
	}
	if d.Path[0].Think != 0 || d.Path[1].Think != 2 {
		t.Fatalf("think per hop = %d,%d, want 0,2", d.Path[0].Think, d.Path[1].Think)
	}
	if len(d.ByKind) != 1 || d.ByKind[0].Kind != "DECIDE" || d.ByKind[0].Hops != 2 {
		t.Fatalf("by-kind = %+v", d.ByKind)
	}
}

// TestAnalyzeTruncatedChain: a decide whose parent send never made it into
// the trace is flagged, not fabricated.
func TestAnalyzeTruncatedChain(t *testing.T) {
	events := []trace.Event{
		{Time: 9, Kind: trace.KindDecide, P: 3, Parent: 77, V: types.Zero, Round: 2},
	}
	r := obs.Analyze(events)
	if len(r.Decisions) != 1 || !r.Decisions[0].Truncated || r.Decisions[0].Hops != 0 {
		t.Fatalf("report = %+v", r)
	}
}

// TestAnalyzeFirstDecisionPerProcessInOrder: decisions come out one per
// process, in process order, each from that process's first DECIDE event,
// whatever order the events arrive in.
func TestAnalyzeFirstDecisionPerProcessInOrder(t *testing.T) {
	events := []trace.Event{
		{Time: 4, Kind: trace.KindDecide, P: 3, V: types.One, Round: 2},
		{Time: 5, Kind: trace.KindDecide, P: 1, V: types.Zero, Round: 1},
		{Time: 6, Kind: trace.KindDecide, P: 3, V: types.Zero, Round: 3},
		{Time: 7, Kind: trace.KindDecide, P: 2, V: types.One, Round: 4},
	}
	r := obs.Analyze(events)
	want := []struct {
		p     types.ProcessID
		round int
	}{{1, 1}, {2, 4}, {3, 2}}
	if len(r.Decisions) != len(want) {
		t.Fatalf("decisions = %+v, want %d", r.Decisions, len(want))
	}
	for i, w := range want {
		if d := r.Decisions[i]; d.P != w.p || d.Round != w.round {
			t.Errorf("decision %d is p%d round %d, want p%d round %d", i, d.P, d.Round, w.p, w.round)
		}
	}
}

// TestAnalyzeRealRun: every decision of a traced Bracha run reconstructs to
// a non-trivial chain satisfying the wire+think identity, ending at a
// Start-emitted root.
func TestAnalyzeRealRun(t *testing.T) {
	res, err := runner.Run(runner.Config{
		N: 4, F: 1,
		Protocol:  runner.ProtocolBracha,
		Coin:      runner.CoinCommon,
		Adversary: runner.AdvNone,
		Scheduler: runner.SchedUniform,
		Inputs:    runner.InputSplit,
		Seed:      42,
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := obs.Analyze(res.Recorder.Events())
	if len(r.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(r.Decisions))
	}
	for _, d := range r.Decisions {
		if d.Truncated {
			t.Fatalf("%v: truncated chain in an untruncated trace", d.P)
		}
		if d.Hops == 0 {
			t.Fatalf("%v: empty critical path", d.P)
		}
		if d.Wire+d.Think != d.At {
			t.Fatalf("%v: wire %d + think %d != decision time %d", d.P, d.Wire, d.Think, d.At)
		}
		if root := d.Path[0]; root.SentAt != root.Think {
			// The root hop's think time is its send time by definition.
			t.Fatalf("%v: root think %d != root send time %d", d.P, root.Think, root.SentAt)
		}
	}
	if r.MeanDecisionTime() <= 0 {
		t.Fatal("mean decision time not positive")
	}
	if s := r.String(); s == "" {
		t.Fatal("empty rendering")
	}
}

package runner_test

// Telemetry-plane determinism properties: the merged telemetry report is a
// pure function of (configs, seeds) — bitwise independent of the sweep
// worker count, of GOMAXPROCS, and of the order per-run sinks are merged in
// (the integer merge is exactly associative and commutative, so even
// completion order would do) — and the causal JSONL trace dump of a run is
// byte-stable across repetitions. These are the properties the CI telemetry
// smoke re-checks end-to-end through cmd/bench.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// telemetryConfigs builds a small cross-family config block, every run with
// the telemetry plane attached.
func telemetryConfigs(tb testing.TB, runs int) []runner.Config {
	tb.Helper()
	var cfgs []runner.Config
	for _, sched := range []struct {
		kind  runner.SchedulerKind
		sched runner.SchedParams
	}{
		{kind: runner.SchedUniform},
		{kind: runner.SchedReorder},
		{kind: runner.SchedAdaptiveRush, sched: runner.SchedParams{TargetLag: 480}},
	} {
		for i := 0; i < runs; i++ {
			cfgs = append(cfgs, runner.Config{
				N: 8, F: 2,
				Protocol:      runner.ProtocolBracha,
				Coin:          runner.CoinCommon,
				Adversary:     runner.AdvLiar,
				Scheduler:     sched.kind,
				Sched:         sched.sched,
				Inputs:        runner.InputRandom,
				MaxDeliveries: runner.DeliveryBudget(8),
				Seed:          int64(1 + i),
				Telemetry:     true,
			})
		}
	}
	return cfgs
}

// mergedReportJSON sweeps the configs and renders the index-order-merged
// telemetry report as JSON.
func mergedReportJSON(tb testing.TB, cfgs []runner.Config, workers int) []byte {
	tb.Helper()
	results, err := runner.Sweep(cfgs, workers, runner.Run)
	if err != nil {
		tb.Fatal(err)
	}
	merged := sim.NewTelemetry()
	for _, r := range results {
		if r.Telemetry == nil {
			tb.Fatalf("seed %d: Config.Telemetry set but Result.Telemetry nil", r.Config.Seed)
		}
		merged.Merge(r.Telemetry)
	}
	out, err := json.Marshal(merged.Report())
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestTelemetryWorkerIndependence: the merged report is bitwise identical
// across worker counts and GOMAXPROCS values.
func TestTelemetryWorkerIndependence(t *testing.T) {
	cfgs := telemetryConfigs(t, 3)
	want := mergedReportJSON(t, cfgs, 1)
	if len(want) == 0 || bytes.Equal(want, []byte(`{"kinds":null,"phases":null}`)) {
		t.Fatalf("empty telemetry report: %s", want)
	}
	for _, workers := range []int{2, 4} {
		if got := mergedReportJSON(t, cfgs, workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: merged report diverged\n got: %s\nwant: %s", workers, got, want)
		}
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if got := mergedReportJSON(t, cfgs, 4); !bytes.Equal(got, want) {
		t.Errorf("GOMAXPROCS=2: merged report diverged")
	}
}

// TestTelemetryMergeOrderIndependence: folding the per-run sinks in any
// permutation — the completion orders a worker pool could produce — yields
// the identical report, because the merge is associative and commutative
// over pure integer state.
func TestTelemetryMergeOrderIndependence(t *testing.T) {
	cfgs := telemetryConfigs(t, 2)
	results, err := runner.Sweep(cfgs, 2, runner.Run)
	if err != nil {
		t.Fatal(err)
	}
	fold := func(order []int) []byte {
		merged := sim.NewTelemetry()
		for _, i := range order {
			merged.Merge(results[i].Telemetry)
		}
		out, err := json.Marshal(merged.Report())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	want := fold(order)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := fold(order); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: merge order %v changed the report", trial, order)
		}
	}
}

// TestTraceJSONLByteStable: two runs of the identical config produce
// byte-identical causal JSONL dumps (what the CI trace smoke diffs through
// `bench run -trace`).
func TestTraceJSONLByteStable(t *testing.T) {
	cfg := runner.Config{
		N: 4, F: 1,
		Protocol:  runner.ProtocolBracha,
		Coin:      runner.CoinCommon,
		Adversary: runner.AdvNone,
		Scheduler: runner.SchedUniform,
		Inputs:    runner.InputSplit,
		Seed:      42,
		Trace:     true,
	}
	dump := func() []byte {
		res, err := runner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Recorder.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if len(a) == 0 {
		t.Fatal("empty JSONL dump")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different JSONL dumps")
	}
}

// TestTelemetryMatchesResultCounters: the per-kind totals agree exactly with
// the run's headline counters, including the newly surfaced drop counter.
func TestTelemetryMatchesResultCounters(t *testing.T) {
	res, err := runner.Run(runner.Config{
		N: 8, F: 2,
		Protocol:  runner.ProtocolBracha,
		Coin:      runner.CoinCommon,
		Adversary: runner.AdvEquivocator,
		Scheduler: runner.SchedRushByz,
		Inputs:    runner.InputSplit,
		Seed:      5,
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent, delivered, dropped, bytesTotal int64
	for k := range res.Telemetry.Kinds {
		ks := &res.Telemetry.Kinds[k]
		sent += ks.Sent
		delivered += ks.Delivered
		dropped += ks.Dropped
		bytesTotal += ks.Bytes
	}
	if sent != int64(res.Messages) || delivered != int64(res.Deliveries) {
		t.Errorf("telemetry sent/delivered %d/%d != result %d/%d", sent, delivered, res.Messages, res.Deliveries)
	}
	if dropped != int64(res.Dropped) {
		t.Errorf("telemetry dropped %d != result dropped %d", dropped, res.Dropped)
	}
	if bytesTotal != res.WireBytes {
		t.Errorf("telemetry bytes %d != wire bytes %d", bytesTotal, res.WireBytes)
	}
}

// TestSMRTelemetryPhases: a checkpointing replicated-log run charges the
// vote→certify phase, and a restart run charges request→install — the
// checkpoint-plane marks wired through internal/smr.
func TestSMRTelemetryPhases(t *testing.T) {
	base := runner.SMRConfig{
		N: 4, F: 1,
		Slots:           48,
		Commands:        8,
		CheckpointEvery: 8,
		Coin:            runner.CoinCommon,
		Seed:            3,
		Telemetry:       true,
	}
	res, err := runner.RunSMR(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("SMRConfig.Telemetry set but SMRResult.Telemetry nil")
	}
	if c := res.Telemetry.Phases[sim.PhaseCkptCertify].Count; c == 0 {
		t.Error("no vote→certify phase observations in a checkpointing run")
	}
	if c := res.Telemetry.Phases[sim.PhaseRBCDeliver].Count; c == 0 {
		t.Error("no RBC deliver observations in a dissemination-driven run")
	}

	restart := base
	restart.Restart = &runner.SMRRestart{CrashAfter: 320, ReviveAfter: 640}
	rres, err := runner.RunSMR(restart)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Transfers == 0 {
		t.Skip("victim never installed a transfer at this seed; install phase untestable")
	}
	if c := rres.Telemetry.Phases[sim.PhaseCkptInstall].Count; c == 0 {
		t.Error("victim installed a transfer but request→install phase is empty")
	}
}

// TestRoundDecideMarks: with the telemetry plane attached, each engine of
// the protocol table charges one mark per decision, and each mark is the
// time from the entry of the deciding round to the decision, as the trace
// of the same run records them. Split inputs make some processes decide
// past round 1, whose entry is not time zero.
func TestRoundDecideMarks(t *testing.T) {
	for _, p := range []runner.Protocol{runner.ProtocolBracha, runner.ProtocolBenOr} {
		res, err := runner.Run(runner.Config{
			N: 6, F: 1,
			Protocol:  p,
			Coin:      runner.CoinLocal,
			Adversary: runner.AdvNone,
			Scheduler: runner.SchedUniform,
			Inputs:    runner.InputSplit,
			Seed:      1,
			Trace:     true,
			Telemetry: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllDecided || res.MaxRound < 2 {
			t.Fatalf("%v: all decided %v by round %d; want every process decided, one past round 1",
				p, res.AllDecided, res.MaxRound)
		}
		// A node's own events carry no time; they happen at the delivery
		// that triggered them, the last one recorded before them.
		entered := map[[2]int]int64{} // (process, round) → entry time
		var now, sum int64
		for _, e := range res.Recorder.Events() {
			switch e.Kind {
			case trace.KindDeliver:
				now = e.Time
			case trace.KindRound:
				entered[[2]int{int(e.P), e.Round}] = now
			case trace.KindDecide:
				sum += now - entered[[2]int{int(e.P), e.Round}]
			}
		}
		marks := res.Telemetry.Phases[sim.PhaseRoundDecide]
		if marks.Count != int64(len(res.Decisions)) || marks.Sum != sum {
			t.Errorf("%v: %d round-decide marks summing to %d ticks; want %d marks summing to %d",
				p, marks.Count, marks.Sum, len(res.Decisions), sum)
		}
	}
}

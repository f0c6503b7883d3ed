package runner

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// byteMeter is the fingerprint of one run's wire metering: every aggregate
// the simulator's Stats fold produces. Two runs of the same (config, seed)
// must agree on all of it exactly — the metering is part of the determinism
// contract, not a statistic.
type byteMeter struct {
	WireBytes  int64
	Messages   int
	Deliveries int
	EndTime    sim.Time
	MeanRounds float64
}

func meterOf(res *Result) byteMeter {
	return byteMeter{
		WireBytes:  res.WireBytes,
		Messages:   res.Messages,
		Deliveries: res.Deliveries,
		EndTime:    res.EndTime,
		MeanRounds: res.MeanRounds,
	}
}

// byteBattery spans the scheduler families whose metering paths differ:
// uniform (the plain path), lossy (retransmit lag plus the duplicate path —
// duplicates are metered sends), topology (relay lag), and the adaptive
// rush adversary (frontier-dependent delivery order).
func byteBattery() []Config {
	var cfgs []Config
	for _, sched := range []SchedulerKind{SchedUniform, SchedLossy, SchedTopology, SchedAdaptiveRush} {
		for seed := int64(1); seed <= 3; seed++ {
			cfgs = append(cfgs, Config{
				N: 5, F: 1, Byzantine: -1,
				Protocol:  ProtocolBracha,
				Coin:      CoinCommon,
				Adversary: AdvEquivocator,
				Scheduler: sched,
				Inputs:    InputSplit,
				Seed:      seed,
			})
		}
	}
	return cfgs
}

// TestWireBytesDeterministic pins that Stats.Bytes — surfaced as
// Result.WireBytes — and the rest of the wire meter are bitwise independent
// of the worker count and of GOMAXPROCS, and identical between Sweep and
// SweepStream over the same configurations. The duplicate path (lossy
// scheduler) is in the battery on purpose: duplicated deliveries meter
// bytes too, and a meter that double-counted nondeterministically would
// only show up under exactly this comparison.
func TestWireBytesDeterministic(t *testing.T) {
	cfgs := byteBattery()

	base, err := Sweep(cfgs, 1, Run)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byteMeter, len(base))
	for i, res := range base {
		if res.WireBytes <= 0 {
			t.Fatalf("cfg %d (%v): wire meter never ran (WireBytes = %d)", i, cfgs[i].Scheduler, res.WireBytes)
		}
		want[i] = meterOf(res)
	}

	check := func(t *testing.T, got []byteMeter) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("cfg %d (%v seed %d): meter %+v, want %+v",
					i, cfgs[i].Scheduler, cfgs[i].Seed, got[i], want[i])
			}
		}
	}

	for _, workers := range []int{2, 4} {
		results, err := Sweep(cfgs, workers, Run)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]byteMeter, len(results))
		for i, res := range results {
			got[i] = meterOf(res)
		}
		check(t, got)
	}

	// GOMAXPROCS must not leak into the meter either: pin it to 1 (the
	// harshest scheduling change) and sweep with the default worker count.
	prev := runtime.GOMAXPROCS(1)
	results, err := Sweep(cfgs, 0, Run)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byteMeter, len(results))
	for i, res := range results {
		got[i] = meterOf(res)
	}
	check(t, got)

	// SweepStream folds results through emit in strict index order; the
	// meters it observes must be the same bytes Sweep returned.
	streamed := make([]byteMeter, len(cfgs))
	err = SweepStream(len(cfgs), 4, func(i int) (*Result, error) { return Run(cfgs[i]) }, func(i int, res *Result) error {
		streamed[i] = meterOf(res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check(t, streamed)
}

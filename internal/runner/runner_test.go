package runner

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/quorum"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return res
}

func requireClean(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v (config %+v)", check.Render(res.Violations), res.Config)
	}
	if !res.AllDecided {
		t.Fatalf("not all correct processes decided (config %+v)", res.Config)
	}
	if res.Exhausted {
		t.Fatalf("delivery budget exhausted (config %+v)", res.Config)
	}
}

func TestBrachaAllCorrectAcrossSizes(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		for seed := int64(0); seed < 3; seed++ {
			res := mustRun(t, Config{
				N: n, F: quorum.MaxByzantine(n), Byzantine: 0,
				Protocol: ProtocolBracha, Coin: CoinCommon,
				Adversary: AdvNone, Scheduler: SchedUniform,
				Inputs: InputSplit, Seed: seed,
			})
			requireClean(t, res)
		}
	}
}

func TestBrachaFullByzantineMatrix(t *testing.T) {
	// Every adversary × scheduler at optimal resilience: safety and
	// termination must hold everywhere.
	adversaries := []Adversary{AdvSilent, AdvEquivocator, AdvLiar, AdvDecideForger, AdvSplitBrain}
	schedulers := []SchedulerKind{SchedUniform, SchedFIFO, SchedRushByz, SchedPartition}
	for _, adv := range adversaries {
		for _, sched := range schedulers {
			t.Run(adv.String()+"/"+sched.String(), func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					res := mustRun(t, Config{
						N: 7, F: 2, Byzantine: -1,
						Protocol: ProtocolBracha, Coin: CoinCommon,
						Adversary: adv, Scheduler: sched,
						Inputs: InputSplit, Seed: seed,
					})
					requireClean(t, res)
				}
			})
		}
	}
}

func TestBrachaLocalCoinWithAdversaries(t *testing.T) {
	for _, adv := range []Adversary{AdvSilent, AdvLiar} {
		for seed := int64(0); seed < 3; seed++ {
			res := mustRun(t, Config{
				N: 4, F: 1, Byzantine: -1,
				Protocol: ProtocolBracha, Coin: CoinLocal,
				Adversary: adv, Scheduler: SchedUniform,
				Inputs: InputRandom, Seed: seed,
			})
			requireClean(t, res)
		}
	}
}

func TestBenOrWithinResilience(t *testing.T) {
	// n=11, f=2 < 11/5: Ben-Or must be correct, even against plain
	// equivocators.
	for _, adv := range []Adversary{AdvNone, AdvSilent, AdvEquivocator} {
		for seed := int64(0); seed < 3; seed++ {
			res := mustRun(t, Config{
				N: 11, F: 2, Byzantine: -1,
				Protocol: ProtocolBenOr, Coin: CoinCommon,
				Adversary: adv, Scheduler: SchedUniform,
				Inputs: InputSplit, Seed: seed,
			})
			requireClean(t, res)
		}
	}
}

func TestBenOrBeyondResilienceDegrades(t *testing.T) {
	// n=7, f=2 > ⌈7/5⌉−1 = 1: beyond Ben-Or's n > 5f bound. With plain
	// equivocators some runs must go wrong (safety or liveness); Bracha on
	// the identical configuration must stay clean. This is the E6 crossover
	// in miniature.
	var benorBad, brachaBad int
	const seeds = 12
	for seed := int64(0); seed < seeds; seed++ {
		benor := mustRun(t, Config{
			N: 7, F: 2, Byzantine: -1,
			Protocol: ProtocolBenOr, Coin: CoinLocal,
			Adversary: AdvEquivocator, Scheduler: SchedRushByz,
			Inputs: InputSplit, Seed: seed,
			MaxRounds: 60, MaxDeliveries: 300_000,
		})
		if len(benor.Violations) > 0 || !benor.AllDecided {
			benorBad++
		}
		bracha := mustRun(t, Config{
			N: 7, F: 2, Byzantine: -1,
			Protocol: ProtocolBracha, Coin: CoinCommon,
			Adversary: AdvEquivocator, Scheduler: SchedRushByz,
			Inputs: InputSplit, Seed: seed,
		})
		if len(bracha.Violations) > 0 || !bracha.AllDecided {
			brachaBad++
		}
	}
	if benorBad == 0 {
		t.Error("Ben-Or at f=2, n=7 (beyond n>5f) never degraded; expected failures")
	}
	if brachaBad != 0 {
		t.Errorf("Bracha degraded on %d/%d runs at its design point", brachaBad, seeds)
	}
}

func TestTightnessSplitBrainBreaksOversizedF(t *testing.T) {
	// E7: n=4 with f_assumed=1 but 2 actual split-brain colluders. The
	// resilience bound is tight, so agreement must break (with the rushing
	// scheduler making the attack deterministic).
	res := mustRun(t, Config{
		N: 4, F: 1, Byzantine: 2,
		Protocol: ProtocolBracha, Coin: CoinCommon,
		Adversary: AdvSplitBrain, Scheduler: SchedRushByz,
		Inputs: InputSplit, Seed: 1,
		MaxDeliveries: 200_000, MaxRounds: 50,
	})
	broke := len(res.Violations) > 0 || !res.AllDecided
	if !broke {
		t.Fatalf("f = ⌊(n−1)/3⌋+1 split-brain attack caused no violation; decisions: %v", res.Decisions)
	}
}

func TestTightnessSameAttackHarmlessAtDesignPoint(t *testing.T) {
	// The same split-brain attack with only f=1 attacker on n=4 must be
	// harmless.
	for seed := int64(0); seed < 5; seed++ {
		res := mustRun(t, Config{
			N: 4, F: 1, Byzantine: 1,
			Protocol: ProtocolBracha, Coin: CoinCommon,
			Adversary: AdvSplitBrain, Scheduler: SchedRushByz,
			Inputs: InputSplit, Seed: seed,
		})
		requireClean(t, res)
	}
}

func TestAblationValidationOffDegradesUnderLiar(t *testing.T) {
	// A1: with validation disabled, liar traffic can stall progress or
	// spoil rounds. We only require that the ablation is *observably worse*
	// over a seed sweep: more rounds on average or outright failures.
	var onRounds, offRounds float64
	var offBad int
	const seeds = 8
	for seed := int64(0); seed < seeds; seed++ {
		on := mustRun(t, Config{
			N: 4, F: 1, Byzantine: -1,
			Protocol: ProtocolBracha, Coin: CoinCommon,
			Adversary: AdvLiar, Scheduler: SchedRushByz,
			Inputs: InputUnanimous1, Seed: seed,
		})
		requireClean(t, on)
		onRounds += on.MeanRounds
		off, err := Run(Config{
			N: 4, F: 1, Byzantine: -1,
			Protocol: ProtocolBracha, Coin: CoinCommon,
			Adversary: AdvLiar, Scheduler: SchedRushByz,
			Inputs: InputUnanimous1, Seed: seed,
			DisableValidation: true,
			MaxRounds:         40, MaxDeliveries: 300_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(off.Violations) > 0 || !off.AllDecided {
			offBad++
		}
		offRounds += off.MeanRounds
	}
	if offBad == 0 && offRounds <= onRounds {
		t.Errorf("validation-off showed no degradation: on=%.2f off=%.2f bad=%d",
			onRounds/seeds, offRounds/seeds, offBad)
	}
}

func TestAblationGadgetOffStillDecides(t *testing.T) {
	// A2: without the gadget, decisions still happen and agree; nodes just
	// never halt (the runner stops once every correct process decided).
	res := mustRun(t, Config{
		N: 4, F: 1, Byzantine: 0,
		Protocol: ProtocolBracha, Coin: CoinIdeal,
		Adversary: AdvNone, Scheduler: SchedUniform,
		Inputs: InputUnanimous1, Seed: 4,
		DisableDecideGadget: true,
		MaxDeliveries:       200_000,
	})
	if len(res.Violations) != 0 || !res.AllDecided {
		t.Fatalf("gadget-off run failed: %v all=%v", res.Violations, res.AllDecided)
	}
}

func TestUnanimousInputsDecideRoundOne(t *testing.T) {
	for _, inputs := range []Inputs{InputUnanimous0, InputUnanimous1} {
		res := mustRun(t, Config{
			N: 7, F: 2, Byzantine: 2,
			Protocol: ProtocolBracha, Coin: CoinCommon,
			Adversary: AdvSilent, Scheduler: SchedUniform,
			Inputs: inputs, Seed: 9,
		})
		requireClean(t, res)
		want := uint8(0)
		if inputs == InputUnanimous1 {
			want = 1
		}
		for p, v := range res.Decisions {
			if uint8(v) != want {
				t.Errorf("%v decided %v, want %d", p, v, want)
			}
		}
		if res.MaxRound != 1 {
			t.Errorf("inputs %v: MaxRound = %d, want 1", inputs, res.MaxRound)
		}
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	res := mustRun(t, Config{
		N: 4, F: 1, Byzantine: 0,
		Protocol: ProtocolBracha, Coin: CoinIdeal,
		Adversary: AdvNone, Scheduler: SchedUniform,
		Inputs: InputUnanimous0, Seed: 5, Trace: true,
	})
	requireClean(t, res)
	if res.Messages == 0 || res.Deliveries == 0 {
		t.Error("message metrics empty")
	}
	if res.MeanRounds < 1 {
		t.Errorf("MeanRounds = %v", res.MeanRounds)
	}
	if res.Recorder == nil || res.Recorder.Len() == 0 {
		t.Error("trace requested but empty")
	}
	if len(res.Rounds) != 4 {
		t.Errorf("Rounds has %d entries, want 4", len(res.Rounds))
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{
		N: 7, F: 2, Byzantine: -1,
		Protocol: ProtocolBracha, Coin: CoinCommon,
		Adversary: AdvLiar, Scheduler: SchedUniform,
		Inputs: InputRandom, Seed: 99,
	}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Messages != b.Messages || a.Deliveries != b.Deliveries || a.EndTime != b.EndTime {
		t.Errorf("replay diverged: %d/%d/%d vs %d/%d/%d",
			a.Messages, a.Deliveries, a.EndTime, b.Messages, b.Deliveries, b.EndTime)
	}
	for p, v := range a.Decisions {
		if b.Decisions[p] != v {
			t.Errorf("decision of %v diverged", p)
		}
	}
}

// TestConfigValidation is the config contract of every driver: each row is
// input a command line can produce, and each must come back as ErrBadConfig
// — never a panic — through the drivers' shared validation step.
func TestConfigValidation(t *testing.T) {
	run := func(cfg Config) func() error {
		return func() error { _, err := Run(cfg); return err }
	}
	rbc := func(cfg RBCConfig) func() error {
		return func() error { _, err := RunRBC(cfg); return err }
	}
	smr := func(cfg SMRConfig) func() error {
		return func() error { _, err := RunSMR(cfg); return err }
	}
	throughput := func(cfg ThroughputConfig) func() error {
		return func() error { _, err := RunThroughput(cfg); return err }
	}
	restart := &SMRRestart{CrashAfter: 1, ReviveAfter: 1}
	tests := []struct {
		name string
		run  func() error
	}{
		{"Run: bad n", run(Config{N: 0, F: 0, Protocol: ProtocolBracha, Coin: CoinIdeal})},
		{"Run: byzantine everyone", run(Config{N: 4, F: 1, Byzantine: 4, Protocol: ProtocolBracha, Coin: CoinIdeal, Adversary: AdvSilent})},
		{"Run: benor with validation ablation", run(Config{N: 4, F: 1, Protocol: ProtocolBenOr, Coin: CoinIdeal, DisableValidation: true})},
		{"Run: unknown protocol", run(Config{N: 4, F: 1, Coin: CoinIdeal})},
		{"Run: unknown coin", run(Config{N: 4, F: 1, Protocol: ProtocolBracha})},

		{"RunRBC: empty system", rbc(RBCConfig{N: 0, F: 0})},
		{"RunRBC: byzantine > n", rbc(RBCConfig{N: 4, F: 1, Byzantine: 5})},

		{"RunSMR: Slots = 0", smr(SMRConfig{N: 4, F: 1})},
		{"RunSMR: restart without checkpointing", smr(SMRConfig{N: 4, F: 1, Slots: 8, Restart: restart})},
		{"RunSMR: empty system", smr(SMRConfig{N: 0, F: 0, Slots: 8})},
		{"RunSMR: single live replica", smr(SMRConfig{N: 4, F: 1, Slots: 8, Crashed: 3})},
		{"RunSMR: crashed < 0", smr(SMRConfig{N: 4, F: 1, Slots: 8, Crashed: -1})},
		{"RunSMR: crashed > n", smr(SMRConfig{N: 4, F: 1, Slots: 8, Crashed: 5})},
		{"RunSMR: f above (n-1)/3", smr(SMRConfig{N: 4, F: 2, Slots: 8})},
		{"RunSMR: negative checkpoint cadence", smr(SMRConfig{N: 4, F: 1, Slots: 8, CheckpointEvery: -4})},
		{"RunSMR: negative attackers", smr(SMRConfig{N: 4, F: 1, Slots: 8, CheckpointEvery: 4,
			Attack: adversary.CkptStaleResponder, Byzantine: -3, Sched: SchedStraggler})},

		{"RunThroughput: n = 0", throughput(ThroughputConfig{N: 0, F: 0, Entries: 4})},
		{"RunThroughput: f above (n-1)/3", throughput(ThroughputConfig{N: 4, F: 2, Entries: 4})},
		{"RunThroughput: negative checkpoint cadence", throughput(ThroughputConfig{N: 4, F: 1, Entries: 4, CheckpointEvery: -4})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.run(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestEnumStrings(t *testing.T) {
	pairs := []struct {
		got, want string
	}{
		{ProtocolBracha.String(), "bracha"},
		{ProtocolBenOr.String(), "benor"},
		{CoinLocal.String(), "local"},
		{CoinCommon.String(), "common"},
		{CoinIdeal.String(), "ideal"},
		{AdvNone.String(), "none"},
		{AdvSplitBrain.String(), "split-brain"},
		{SchedUniform.String(), "uniform"},
		{SchedPartition.String(), "partition"},
		{SchedLossy.String(), "lossy"},
		{SchedTopology.String(), "topology"},
		{SchedAdaptive.String(), "adaptive"},
		{SchedAdaptiveRush.String(), "adaptive-rush"},
		{InputSplit.String(), "split"},
		{InputRandom.String(), "random"},
		{Protocol(9).String(), "Protocol(9)"},
		{CoinKind(9).String(), "CoinKind(9)"},
		{Adversary(9).String(), "Adversary(9)"},
		{SchedulerKind(99).String(), "SchedulerKind(99)"},
		{Inputs(9).String(), "Inputs(9)"},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Errorf("String() = %q, want %q", p.got, p.want)
		}
	}
}

// enumRoundTrip checks one name table: Parse inverts String for every named
// value, the table ends exactly at the enum's last constant, and an unknown
// name is an ErrBadConfig listing the valid ones.
func enumRoundTrip[E interface {
	~int
	String() string
}](t *testing.T, table EnumTable[E], last E) {
	t.Helper()
	for v := E(1); v <= last; v++ {
		got, err := table.Parse(v.String())
		if err != nil || got != v {
			t.Errorf("Parse(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	if _, err := table.Parse((last + 1).String()); !errors.Is(err, ErrBadConfig) ||
		!strings.Contains(err.Error(), last.String()) {
		t.Errorf("name past the last constant %v: err = %v, want ErrBadConfig listing the valid names", last, err)
	}
}

func TestEnumTablesRoundTrip(t *testing.T) {
	enumRoundTrip(t, Protocols, ProtocolBenOr)
	enumRoundTrip(t, Coins, CoinIdeal)
	enumRoundTrip(t, Adversaries, AdvCrashMidway)
	enumRoundTrip(t, Schedulers, SchedAdaptiveRush)
	enumRoundTrip(t, InputPatterns, InputRandom)
}

func TestRunRBCModes(t *testing.T) {
	t.Run("consistent honest is cheaper", func(t *testing.T) {
		rel, err := RunRBC(RBCConfig{N: 7, F: 2, Byzantine: 0, Mode: ModeReliable, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		con, err := RunRBC(RBCConfig{N: 7, F: 2, Byzantine: 0, Mode: ModeConsistent, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Violations) != 0 || len(con.Violations) != 0 {
			t.Fatalf("honest violations: %v / %v", rel.Violations, con.Violations)
		}
		if rel.Messages != 7+2*49 || con.Messages != 7+49 {
			t.Errorf("messages = %d / %d, want %d / %d", rel.Messages, con.Messages, 7+2*49, 7+49)
		}
	})
	t.Run("partial-send attack separates totality", func(t *testing.T) {
		rel, err := RunRBC(RBCConfig{N: 7, F: 2, Byzantine: 2, Mode: ModeReliable, SenderPartial: true, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Violations) != 0 {
			t.Errorf("reliable broadcast violated under partial send: %v", rel.Violations)
		}
		con, err := RunRBC(RBCConfig{N: 7, F: 2, Byzantine: 2, Mode: ModeConsistent, SenderPartial: true, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !hasProp(con.Violations, check.PropRBCTotality) {
			t.Errorf("consistent broadcast under partial send: violations = %v, want totality", con.Violations)
		}
	})
	t.Run("partial sender needs byzantine", func(t *testing.T) {
		if _, err := RunRBC(RBCConfig{N: 4, F: 1, Byzantine: 0, SenderPartial: true}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("error = %v, want ErrBadConfig", err)
		}
	})
}

func hasProp(vs []check.Violation, prop string) bool {
	for _, v := range vs {
		if v.Property == prop {
			return true
		}
	}
	return false
}

func TestBroadcastModeString(t *testing.T) {
	if ModeReliable.String() != "reliable" || ModeConsistent.String() != "consistent" {
		t.Error("unexpected mode names")
	}
}

func TestCrashMidwayTolerated(t *testing.T) {
	for _, sched := range []SchedulerKind{SchedUniform, SchedRushByz} {
		for seed := int64(0); seed < 5; seed++ {
			res := mustRun(t, Config{
				N: 7, F: 2, Byzantine: -1,
				Protocol: ProtocolBracha, Coin: CoinCommon,
				Adversary: AdvCrashMidway, Scheduler: sched,
				Inputs: InputSplit, Seed: seed,
			})
			requireClean(t, res)
		}
	}
}

package runner

import (
	"fmt"

	"repro/internal/quorum"
	"repro/internal/sim"
)

// This file is the adversarial property-test harness: a battery of named
// scenarios — each a seed-driven adversarial schedule plus Byzantine
// behaviour — swept across thousands of seeds through the streaming
// checkpointable engine, asserting the paper's properties (agreement,
// validity, integrity, termination for consensus; the four RBC properties
// for broadcast) on every single run via internal/check. Randomized
// asynchronous protocols are only trustworthy under adversarial schedules,
// so this harness, not the golden replays, is what backs the repository's
// "0 violations" claims at the n=64/128 frontier.

// Scenario is one adversarial property-test setup.
type Scenario struct {
	// Name identifies the scenario (bench sweep -scenario).
	Name string
	// RBC marks a reliable-broadcast scenario; otherwise it is a full
	// consensus scenario.
	RBC bool

	// Consensus knobs.
	Adversary Adversary
	Scheduler SchedulerKind
	Coin      CoinKind
	Inputs    Inputs
	// Sched pins the scheduler family's parameters (zero = historical
	// defaults). Cliff scenarios found by internal/search carry the
	// offending point here verbatim.
	Sched SchedParams

	// RBC knobs (see RBCConfig).
	SenderEquivocates bool
	SenderPartial     bool

	// NoHalt runs the paper's original non-halting formulation (decide
	// gadget off): processes decide but keep starting rounds until every
	// correct process has decided. Scenarios that need decided processes
	// to keep running — so round skew between fast and slow processes
	// keeps growing — use this.
	NoHalt bool
	// SpareFault runs with one fewer actual Byzantine process than the
	// bound assumes (f−1 instead of f). The unused quorum slot means the
	// remaining correct processes can make progress with one of their own
	// cut off — the precondition for any scenario that wants genuine
	// round skew between correct processes at optimal resilience.
	SpareFault bool
	// BudgetScale multiplies the size-scaled delivery budget (0 = 1).
	// Scenarios whose schedules stretch the run far beyond the usual
	// constant number of rounds need the headroom.
	BudgetScale int

	// Doc is a one-line description of what the scenario attacks.
	Doc string
}

// Scenarios returns the harness battery. Every entry must hold all
// properties at optimal resilience — a single violation anywhere in a sweep
// is a failed run of the harness.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "equivocation-rush", Adversary: AdvEquivocator, Scheduler: SchedRushByz,
			Coin: CoinCommon, Inputs: InputSplit,
			Doc: "Byzantine echo equivocation with rushed adversarial traffic",
		},
		{
			Name: "liar-partition", Adversary: AdvLiar, Scheduler: SchedPartition,
			Coin: CoinCommon, Inputs: InputSplit,
			Doc: "protocol-shaped value flipping across a delayed partition",
		},
		{
			Name: "split-heal", Adversary: AdvEquivocator, Scheduler: SchedSplitHeal,
			Coin: CoinCommon, Inputs: InputSplit,
			Doc: "network split between correct halves, healed mid-run, equivocators throughout",
		},
		{
			Name: "reorder", Adversary: AdvLiar, Scheduler: SchedReorder,
			Coin: CoinCommon, Inputs: InputRandom,
			Doc: "adversarial newest-first message reordering under a liar",
		},
		{
			// The liveness cliff found by internal/search (the adaptive
			// family's summit, `bench search -family adaptive`): the adaptive
			// adversary reads the decision frontier, lags all traffic toward
			// the most advanced correct process by the searched TargetLag,
			// and rushes Byzantine traffic there first. Against the same
			// liar/common-coin/random-input setup, this schedule costs
			// strictly more rounds to decide than "reorder"'s newest-first
			// span (TestAdaptiveCliffSlowerThanReorder pins the gap). Safety
			// and termination must still hold — the cliff is rounds, never
			// correctness.
			Name: "adaptive-cliff", Adversary: AdvLiar, Scheduler: SchedAdaptiveRush,
			Coin: CoinCommon, Inputs: InputRandom,
			Sched: SchedParams{TargetLag: 480},
			Doc:   "searched frontier-targeted delay + rush point that maximizes rounds-to-decide",
		},
		{
			Name: "crash-rejoin", Adversary: AdvCrashMidway, Scheduler: SchedRejoin,
			Coin: CoinCommon, Inputs: InputSplit,
			Doc: "mid-protocol crashes plus a correct process rejoining from a long outage",
		},
		{
			// Unanimous inputs with private coins: the run must decide in
			// round 1 whatever the schedule does, so any influence of the
			// forged DECIDEs (validity or integrity) is immediately visible.
			Name: "forger-reorder", Adversary: AdvDecideForger, Scheduler: SchedReorder,
			Coin: CoinLocal, Inputs: InputUnanimous1,
			Doc: "forged DECIDE gadget messages under reordering, unanimous inputs",
		},
		{
			// The per-round pruning stressor. One correct process is cut
			// off; the spare fault slot lets the rest keep completing
			// quorums, and with the decide gadget off (the paper's
			// original non-halting formulation) they keep starting rounds
			// the whole outage. When the straggler's inbox thaws it
			// fast-forwards through the backlog, emitting step messages
			// and coin shares for rounds its peers released many rounds
			// ago — the late-drop path of the pruning invariant — while
			// its own accepted table buffers rounds far ahead of it.
			// Agreement, validity, and termination must all survive
			// (TestStragglerScenarioExercisesPruning proves the drops
			// actually happen).
			Name: "straggler-prune", Adversary: AdvSilent, Scheduler: SchedStraggler,
			Coin: CoinCommon, Inputs: InputSplit,
			NoHalt: true, SpareFault: true, BudgetScale: 4,
			Doc: "a correct process returns many rounds behind a free-running pack; its late traffic hits pruned rounds",
		},
		{
			Name: "rbc-honest", RBC: true,
			Doc: "reliable broadcast, correct sender, silent faults",
		},
		{
			Name: "rbc-equivocate", RBC: true, SenderEquivocates: true,
			Doc: "reliable broadcast under a sender equivocating to the two halves",
		},
		{
			Name: "rbc-partial", RBC: true, SenderPartial: true,
			Doc: "reliable broadcast under a sender starving all but an echo quorum",
		},
	}
}

// ScenarioByName finds one scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("runner: unknown scenario %q", name)
}

// PropertySpec configures one property sweep: a scenario at a system size,
// across a seed range, with optional checkpointing (all SweepSpec knobs pass
// through).
type PropertySpec struct {
	// N is the system size; F the fault bound (negative = ⌊(n−1)/3⌋, the
	// paper's optimal resilience; 0 is honoured as a genuinely fault-free
	// sweep).
	N int
	F int
	// Scenario selects the attack.
	Scenario Scenario
	// Seeds is the half-open seed range.
	Seeds SeedRange
	// MaxDeliveries overrides the per-run delivery budget (0 = scaled to
	// the system size; consensus traffic grows ~n³ per round).
	MaxDeliveries int

	// Pass-through sweep knobs (see SweepSpec).
	Workers    int
	Checkpoint string
	Every      int
	Resume     bool
	Stop       func() bool
	Progress   func(done, total int64)
}

// deliveryBudget scales the simulator budget to the system size: several
// common-coin rounds of ~2n³ deliveries each, floored at the simulator
// default. Exhausting it surfaces as a termination violation, which is
// exactly what the harness is listening for.
func deliveryBudget(n int) int {
	b := 16 * n * n * n
	if b < sim.DefaultMaxDeliveries {
		b = sim.DefaultMaxDeliveries
	}
	return b
}

// DeliveryBudget exposes the size-scaled per-run delivery budget to other
// packages (internal/search uses it to give searched points a budget whose
// exhaustion is a signal rather than a pathology).
func DeliveryBudget(n int) int { return deliveryBudget(n) }

// SweepSpec expands the property spec into the checkpointable sweep it runs.
func (p PropertySpec) SweepSpec() (SweepSpec, error) {
	f := p.F
	if f < 0 {
		f = quorum.MaxByzantine(p.N)
	}
	spec := SweepSpec{
		Seeds:      p.Seeds,
		Workers:    p.Workers,
		Checkpoint: p.Checkpoint,
		Every:      p.Every,
		Resume:     p.Resume,
		Stop:       p.Stop,
		Progress:   p.Progress,
	}
	sc := p.Scenario
	if sc.RBC {
		byz := f
		if !sc.SenderEquivocates && !sc.SenderPartial {
			byz = 0 // honest-sender scenario: all processes correct
		}
		spec.RBC = &RBCConfig{
			N: p.N, F: f, Byzantine: byz,
			SenderEquivocates: sc.SenderEquivocates,
			SenderPartial:     sc.SenderPartial,
		}
		return spec, nil
	}
	if sc.Adversary == 0 || sc.Scheduler == 0 {
		return SweepSpec{}, fmt.Errorf("runner: scenario %q is not runnable (zero adversary or scheduler)", sc.Name)
	}
	budget := p.MaxDeliveries
	if budget == 0 {
		budget = deliveryBudget(p.N)
		if sc.BudgetScale > 1 {
			budget *= sc.BudgetScale
		}
	}
	byzantine := -1 // = f
	if sc.SpareFault {
		byzantine = f - 1
		if byzantine < 0 {
			byzantine = 0
		}
	}
	spec.Cfg = Config{
		N: p.N, F: f, Byzantine: byzantine,
		Protocol:            ProtocolBracha,
		Coin:                sc.Coin,
		Adversary:           sc.Adversary,
		Scheduler:           sc.Scheduler,
		Sched:               sc.Sched,
		Inputs:              sc.Inputs,
		MaxDeliveries:       budget,
		DisableDecideGadget: sc.NoHalt,
	}
	return spec, nil
}

// PropertySweep runs the scenario across the seed range and returns the
// aggregate. It does not judge the result: callers assert
// Aggregate.Checks.Clean() (and, for consensus, Decided == Runs) — the
// harness's definition of "the property held".
func PropertySweep(p PropertySpec) (*Aggregate, error) {
	spec, err := p.SweepSpec()
	if err != nil {
		return nil, err
	}
	return SweepSeedRange(spec)
}

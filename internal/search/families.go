package search

import (
	"fmt"
	"sort"

	"repro/internal/runner"
)

// family is one preset search: a scheduler family under the adversary and
// inputs that stress it, with the axes worth walking.
type family struct {
	doc  string
	base func(n, f int) runner.Config
	axes []Axis
}

// consensusBase is the shared preset scaffold: Bracha at the given size with
// a delivery budget tight enough that a stuck schedule exhausts it (a few
// multiples of the size-scaled budget, not the 2M simulator default — the
// exhaustion rate is half the score).
func consensusBase(n, f int, adv runner.Adversary, sched runner.SchedulerKind, coin runner.CoinKind, in runner.Inputs) runner.Config {
	return runner.Config{
		N: n, F: f, Byzantine: -1,
		Protocol:      runner.ProtocolBracha,
		Coin:          coin,
		Adversary:     adv,
		Scheduler:     sched,
		Inputs:        in,
		MaxDeliveries: 4 * runner.DeliveryBudget(n),
	}
}

// families is the preset vocabulary of `bench search -family <family>`.
var families = map[string]family{
	"reorder": {
		doc: "newest-first reordering span under a liar",
		base: func(n, f int) runner.Config {
			return consensusBase(n, f, runner.AdvLiar, runner.SchedReorder, runner.CoinCommon, runner.InputRandom)
		},
		axes: []Axis{
			{Name: "reorder-span", Values: []int64{2, 4, 8, 16, 32, 48, 96, 192}},
		},
	},
	"lossy": {
		doc: "ARQ loss/duplication rates and retransmit lag under equivocators",
		base: func(n, f int) runner.Config {
			return consensusBase(n, f, runner.AdvEquivocator, runner.SchedLossy, runner.CoinCommon, runner.InputSplit)
		},
		axes: []Axis{
			{Name: "loss-pct", Values: []int64{10, 30, 50, 70, 90}},
			{Name: "retransmit-lag", Values: []int64{20, 60, 120}},
		},
	},
	"topology": {
		doc: "ring reach and relay lag (local-broadcast model) under equivocators",
		base: func(n, f int) runner.Config {
			return consensusBase(n, f, runner.AdvEquivocator, runner.SchedTopology, runner.CoinCommon, runner.InputSplit)
		},
		axes: []Axis{
			{Name: "topo-degree", Values: []int64{1, 2, 4, 8}},
			{Name: "hop-lag", Values: []int64{6, 12, 24, 48}},
		},
	},
	"adaptive": {
		doc: "frontier-targeted delay with traffic-triggered rush under a liar",
		base: func(n, f int) runner.Config {
			return consensusBase(n, f, runner.AdvLiar, runner.SchedAdaptiveRush, runner.CoinCommon, runner.InputRandom)
		},
		axes: []Axis{
			{Name: "target-lag", Values: []int64{30, 60, 120, 240, 480}},
		},
	},
	"straggler": {
		doc: "inbound lag of a stragglered correct process under silent faults",
		base: func(n, f int) runner.Config {
			cfg := consensusBase(n, f, runner.AdvSilent, runner.SchedStraggler, runner.CoinCommon, runner.InputSplit)
			cfg.MaxDeliveries = 16 * runner.DeliveryBudget(n)
			return cfg
		},
		axes: []Axis{
			{Name: "straggler-lag", Values: []int64{50, 100, 200, 300, 600}},
		},
	},
}

// Families lists the preset names, sorted.
func Families() []string {
	out := make([]string, 0, len(families))
	// order-free: names sorted below
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FamilyDoc returns the preset's one-line description.
func FamilyDoc(name string) string { return families[name].doc }

// FamilySpec builds the preset search for a family at system size n with
// optimal resilience (f < 0) or the given fault bound, scored over the seed
// block.
func FamilySpec(name string, n, f int, seeds runner.SeedRange) (Spec, error) {
	fam, ok := families[name]
	if !ok {
		return Spec{}, fmt.Errorf("%w: unknown family %q (have %v)", ErrBadSpec, name, Families())
	}
	if f < 0 {
		f = (n - 1) / 3
	}
	return Spec{
		Base:  fam.base(n, f),
		Axes:  append([]Axis(nil), fam.axes...),
		Seeds: seeds,
	}, nil
}

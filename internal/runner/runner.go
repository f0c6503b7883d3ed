// Package runner is the experiment harness: it assembles a cluster (correct
// nodes of either protocol, Byzantine adversaries, a scheduler, a coin),
// runs it on the simulator to quiescence, applies the invariant checkers,
// and reports metrics. Every test sweep, benchmark, and cmd/bench experiment
// goes through Run, so "0 violations" always means machine-checked. RunRBC
// (one broadcast) and RunSMR (a replicated log) are put together the same
// way: schedule.go is the one scheduler zoo, cluster.go the one assembly.
//
// Three layers build on Run:
//
//   - Sweep/SweepSeeds fan independent runs across a worker pool, buffering
//     all results (fine for table-sized sweeps); a SweepSeeds worker builds
//     its cluster once and re-arms it for each seed.
//   - SweepStream/SweepSeedRange stream results through a constant-memory
//     reducer with periodic resumable checkpoints — the engine for
//     million-run sweeps (format and determinism contract: checkpoint.go).
//   - Scenario.SweepSpec expands one entry of the adversarial property-test
//     battery (harness.go) into the SweepSpec the streaming engine runs.
package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/types"
)

// EnumTable names the values of one of this package's enums — names[i]
// names the value i+1 — and is the single source of both directions: every
// enum's String method and every command line's parser read the same table.
type EnumTable[E ~int] struct {
	what  string // the enum, as error messages call it
	names []string
}

// String names v, or renders an out-of-table value as "Type(v)".
func (t EnumTable[E]) String(v E) string {
	if i := int(v) - 1; i >= 0 && i < len(t.names) {
		return t.names[i]
	}
	return fmt.Sprintf("%s(%d)", reflect.TypeOf(v).Name(), int(v))
}

// Parse is the inverse of String; an unknown name is an ErrBadConfig that
// lists the valid ones.
func (t EnumTable[E]) Parse(name string) (E, error) {
	for i, n := range t.names {
		if n == name {
			return E(i + 1), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown %s %q (valid: %s)", ErrBadConfig, t.what, name, t.Names())
}

// Names lists the valid names, "a | b | c".
func (t EnumTable[E]) Names() string { return strings.Join(t.names, " | ") }

// Protocol selects the consensus implementation.
type Protocol int

// Protocols.
const (
	ProtocolBracha Protocol = iota + 1 // the paper's protocol (n > 3f)
	ProtocolBenOr                      // the 1983 baseline (n > 5f)
)

// Protocols names the protocols, in declaration order.
var Protocols = EnumTable[Protocol]{"protocol", []string{"bracha", "benor"}}

// String implements fmt.Stringer.
func (p Protocol) String() string { return Protocols.String(p) }

// CoinKind selects the randomization source.
type CoinKind int

// Coin kinds.
const (
	CoinLocal  CoinKind = iota + 1 // private per-process flips (Ben-Or style)
	CoinCommon                     // Rabin-style dealer coin
	CoinIdeal                      // test-only shared coin, no messages
)

// Coins names the coin kinds, in declaration order.
var Coins = EnumTable[CoinKind]{"coin", []string{"local", "common", "ideal"}}

// String implements fmt.Stringer.
func (c CoinKind) String() string { return Coins.String(c) }

// Adversary selects the Byzantine behaviour of the faulty processes.
type Adversary int

// Adversary kinds.
const (
	AdvNone         Adversary = iota + 1 // no faulty processes at all
	AdvSilent                            // crash at time zero
	AdvEquivocator                       // RBC equivocation + double echo/ready
	AdvLiar                              // protocol-shaped value flipping
	AdvDecideForger                      // forged DECIDE gadget messages
	AdvSplitBrain                        // per-partition personalities (E7)
	AdvCrashMidway                       // correct participation, then mid-protocol crash
)

// Adversaries names the adversary kinds, in declaration order.
var Adversaries = EnumTable[Adversary]{"adversary", []string{
	"none", "silent", "equivocator", "liar", "decide-forger", "split-brain", "crash-midway",
}}

// String implements fmt.Stringer.
func (a Adversary) String() string { return Adversaries.String(a) }

// Inputs selects the proposal pattern of the correct processes.
type Inputs int

// Input patterns. The first, "unanimous-0", needs no name: proposalFor
// gives it the zero value's all-zero inputs.
const (
	InputUnanimous1 Inputs = iota + 2
	InputSplit             // alternating 0, 1, 0, 1, ...
	InputRandom            // seeded random bits
)

// InputPatterns names the input patterns, in declaration order.
var InputPatterns = EnumTable[Inputs]{"inputs", []string{"unanimous-0", "unanimous-1", "split", "random"}}

// String implements fmt.Stringer.
func (i Inputs) String() string { return InputPatterns.String(i) }

// Config describes one experiment run.
type Config struct {
	N int // total processes
	F int // assumed fault bound (thresholds derive from this)
	// Byzantine is the actual number of faulty processes; -1 means "equal
	// to F". Setting it above F reproduces the tightness experiment.
	Byzantine int

	Protocol  Protocol
	Coin      CoinKind
	Adversary Adversary
	Scheduler SchedulerKind
	Inputs    Inputs
	// Sched parameterizes the scheduler family (zero value = the historical
	// defaults, so pre-existing configs — and their golden replay hashes and
	// checkpoint manifests — are untouched). See SchedParams.
	Sched SchedParams `json:",omitzero"`

	Seed          int64
	MaxDeliveries int  // 0 = sim default
	MaxRounds     int  // 0 = protocol default
	Trace         bool // record events (slower, for debugging)
	// Telemetry attaches the deterministic telemetry plane: per-kind wire
	// counters and latency histograms plus protocol phase histograms,
	// surfaced as Result.Telemetry. Integer state only — the report is a
	// pure function of (Config, Seed), bitwise identical across worker
	// counts and GOMAXPROCS.
	Telemetry bool

	DisableValidation   bool // ablation A1 (Bracha only)
	DisableDecideGadget bool // ablation A2
}

// DealerScanEvery is the delivery cadence of the common-coin dealer's
// low-watermark scans: frequent enough that dealer retention tracks the
// cluster's slowest process closely, rare enough that the O(n) round scan
// is amortized to nothing against the ~n³ deliveries a round takes.
const DealerScanEvery = 1024

// Result is what one run produced.
type Result struct {
	Config     Config
	Violations []check.Violation
	Decisions  map[types.ProcessID]types.Value
	// Rounds maps each decided correct process to its decision round.
	Rounds map[types.ProcessID]int
	// MeanRounds averages Rounds over decided processes (0 if none).
	MeanRounds float64
	// MaxRound is the largest decision round (0 if none decided).
	MaxRound int
	// AllDecided reports whether every correct process decided.
	AllDecided bool
	// Halted counts the correct processes that halted (sim.Node.Done) by
	// the end of the run: with the DECIDE gadget on, those that saw 2f+1
	// DECIDE votes; with it off, none.
	Halted int
	SimStats
	// Exhausted reports that the delivery budget ran out before the run
	// stopped — for a consensus run, a liveness failure.
	Exhausted bool
	// PrunedLate sums, over the correct Bracha nodes, the justified
	// messages that arrived for rounds already released by per-round
	// pruning and were dropped (see core.Stats.PrunedLate).
	PrunedLate int
	// RBCCompacted sums, over the correct Bracha nodes, the terminal RBC
	// instances released to compact delivered records by per-round pruning.
	RBCCompacted int
	// JustificationsRetained sums the per-round justification digests the
	// correct Bracha nodes' validators retain at the end of the run — the
	// other lifetime residue of pruning.
	JustificationsRetained int
	// DealerRoundsRetained is the common-coin dealer's memoized sharing
	// count at the end of the run (0 for other coins) — bounded by the
	// cluster round spread under the low-watermark scan.
	DealerRoundsRetained int
	// Recorder holds the trace when Config.Trace was set.
	Recorder *trace.Recorder
}

// node is the common surface of both protocol implementations.
type node interface {
	sim.Node
	Decided() (types.Value, bool)
	DecidedRound() int
	Round() int
	Proposal() types.Value
	Reset(core.Config) error
}

// Config errors.
var (
	ErrBadConfig = errors.New("runner: invalid config")
)

// Run executes one configured experiment: one arm of a freshly built
// cluster.
func Run(cfg Config) (*Result, error) {
	c, err := newConsensus(cfg)
	if err != nil {
		return nil, err
	}
	return c.run(cfg.Seed)
}

// rearming returns the run function of one goroutine sweeping cfg's seeds:
// its first call builds the cluster and every later one re-arms it, so the
// cluster is built once per sweep worker. A failed run leaves no cluster
// for the next call.
func rearming(cfg Config) func(seed int64) (*Result, error) {
	var c *consensus
	return func(seed int64) (*Result, error) {
		if c == nil {
			var err error
			if c, err = newConsensus(cfg); err != nil {
				return nil, err
			}
		}
		res, err := c.run(seed)
		if err != nil {
			c = nil
		}
		return res, err
	}
}

// consensus is the cluster of one configuration: its processes and
// topology, and once armed its network, coin dealer and endpoints, correct
// nodes and Byzantine nodes. The first arm builds them and every later arm
// re-arms them in place for the next seed (sim.Network.Reset,
// coin.Dealer.Reset, core.Node.Reset and the adversaries' own). Every part
// re-arms to the state its constructor gives, so a run is the same pure
// function of (config, seed) on a re-armed cluster as on a new one.
type consensus struct {
	cfg            Config // normalized; each run sets its own Seed
	spec           quorum.Spec
	peers          []types.ProcessID
	correct, byz   []types.ProcessID
	groupA, groupB []types.ProcessID
	top            schedTopology

	cl      cluster
	dealer  *coin.Dealer   // CoinCommon only
	commons []*coin.Common // CoinCommon only: the correct nodes' endpoints
	nodes   []node
	advs    []sim.Node // by Byzantine index; nil for a silent process
}

// newConsensus validates cfg and lays out its processes; the first run
// builds the rest.
func newConsensus(cfg Config) (*consensus, error) {
	if cfg.Byzantine < 0 {
		cfg.Byzantine = cfg.F
	}
	spec, err := validate(cfg.N, cfg.F, cfg.Byzantine)
	if err != nil {
		return nil, err
	}
	if cfg.Adversary == AdvNone {
		cfg.Byzantine = 0
	}
	if cfg.Byzantine == 0 {
		cfg.Adversary = AdvNone
	}
	if cfg.MaxRounds < 0 || cfg.MaxDeliveries < 0 {
		return nil, fmt.Errorf("%w: negative round (%d) or delivery (%d) budget", ErrBadConfig, cfg.MaxRounds, cfg.MaxDeliveries)
	}

	c := &consensus{cfg: cfg, spec: spec, peers: types.Processes(cfg.N)}
	c.correct = c.peers[:cfg.N-cfg.Byzantine]
	c.byz = c.peers[cfg.N-cfg.Byzantine:]
	c.nodes = make([]node, 0, len(c.correct))
	c.advs = make([]sim.Node, 0, len(c.byz))
	if cfg.Coin == CoinCommon {
		c.commons = make([]*coin.Common, 0, len(c.correct))
	}
	c.groupA, c.groupB = splitGroups(c.correct)
	// The schedule's victim is the last correct process: SchedRejoin holds
	// its inbox, SchedStraggler lags every link into it (loopback included)
	// and none out of it — its own emissions travel normally, which is what
	// makes them stale on arrival.
	victim := c.correct[len(c.correct)-1]
	c.top = schedTopology{n: cfg.N, rushed: c.byz, groupA: c.groupA, groupB: c.groupB, held: victim,
		lagged: make([][2]types.ProcessID, 0, cfg.N)}
	for _, p := range c.peers {
		c.top.lagged = append(c.top.lagged, [2]types.ProcessID{p, victim})
	}
	return c, nil
}

// run arms the cluster for seed and runs it.
func (c *consensus) run(seed int64) (*Result, error) {
	cfg := c.cfg
	cfg.Seed = seed
	members, err := c.arm(cfg)
	if err != nil {
		return nil, err
	}
	nodes := c.nodes
	stop := func() bool {
		for _, nd := range nodes {
			if cfg.DisableDecideGadget {
				if _, ok := nd.Decided(); !ok {
					return false
				}
			} else if !nd.Done() {
				return false
			}
		}
		return true
	}
	if c.dealer != nil {
		stop = pruningDealer(c.dealer, nodes, stop)
	}
	res := &Result{Config: cfg, Recorder: c.cl.rec}
	if res.SimStats, res.Exhausted, err = c.cl.run(members, stop); err != nil {
		return nil, err
	}
	res.observe(nodes)
	if c.dealer != nil {
		res.DealerRoundsRetained = c.dealer.RoundsRetained()
	}
	return res, nil
}

// arm readies every part of the cluster for cfg's seed: the network with
// the run's own scheduler and sinks, the dealer, each correct node with its
// coin and proposal, and each Byzantine node. The first arm builds what
// later arms re-arm, and returns what it built for the network to register
// in start order; a re-arm returns no node.
func (c *consensus) arm(cfg Config) (built []sim.Node, err error) {
	if err := c.cl.arm(newScheduler(cfg.Scheduler, cfg.Sched, c.top), cfg.Seed, cfg.MaxDeliveries, cfg.Trace, cfg.Telemetry); err != nil {
		return nil, err
	}
	if cfg.Coin == CoinCommon {
		if c.dealer == nil {
			c.dealer = coin.NewDealer(c.spec, cfg.Seed+1)
		} else {
			c.dealer.Reset(cfg.Seed + 1)
		}
	}
	for i, p := range c.correct {
		co, err := c.coinFor(cfg, i, p)
		if err != nil {
			return nil, err
		}
		nc := core.Config{
			Me: p, Peers: c.peers, Spec: c.spec, Coin: co, Proposal: proposalFor(cfg, i, p),
			Recorder:            c.cl.rec,
			Telemetry:           c.cl.tele,
			DisableValidation:   cfg.DisableValidation,
			DisableDecideGadget: cfg.DisableDecideGadget,
			MaxRounds:           cfg.MaxRounds,
		}
		if i < len(c.nodes) {
			if err := c.nodes[i].Reset(nc); err != nil {
				return nil, fmt.Errorf("%w: %v: %w", ErrBadConfig, cfg.Protocol, err)
			}
			continue
		}
		nd, err := buildCorrect(cfg.Protocol, nc)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		built = append(built, nd)
	}
	for i, p := range c.byz {
		if i < len(c.advs) {
			if err := rearmAdversary(cfg, c.spec, p, c.peers, c.advs[i]); err != nil {
				return nil, err
			}
			continue
		}
		adv, err := buildAdversary(cfg, c.spec, p, c.peers, c.groupA, c.groupB)
		if err != nil {
			return nil, err
		}
		c.advs = append(c.advs, adv)
		if adv != nil { // silent processes need no node at all
			built = append(built, adv)
		}
	}
	return built, nil
}

// coinFor arms the i-th correct process's coin for cfg's seed. A Common
// endpoint is built on the first arm and re-armed on later ones; either way
// it draws on the dealer arm has just dealt or re-dealt.
func (c *consensus) coinFor(cfg Config, i int, p types.ProcessID) (coin.Coin, error) {
	switch cfg.Coin {
	case CoinLocal:
		return coin.NewLocal(cfg.Seed + 1000*int64(p)), nil
	case CoinCommon:
		if i < len(c.commons) {
			c.commons[i].Reset()
		} else {
			c.commons = append(c.commons, coin.NewCommon(p, c.peers, c.dealer))
		}
		return c.commons[i], nil
	case CoinIdeal:
		return coin.NewIdeal(cfg.Seed + 2), nil
	default:
		return nil, fmt.Errorf("%w: coin %v", ErrBadConfig, cfg.Coin)
	}
}

// pruningDealer wraps a stop predicate with the cluster low-watermark scan.
// The dealer's memoized sharings are shared cluster state: every
// DealerScanEvery deliveries, prune them below the minimum current round
// across the correct nodes, a round no process will release or query again
// (rounds only advance; ShareFor is only called for a node's current round).
// Pruning moves only retention, never behaviour.
func pruningDealer(dealer *coin.Dealer, nodes []node, inner func() bool) func() bool {
	countdown := DealerScanEvery
	return func() bool {
		if countdown--; countdown <= 0 {
			countdown = DealerScanEvery
			low := nodes[0].Round()
			for _, nd := range nodes[1:] {
				low = min(low, nd.Round())
			}
			dealer.Prune(low)
		}
		return inner()
	}
}

// observe folds the correct nodes' outcomes into the result and applies the
// consensus checkers.
func (res *Result) observe(nodes []node) {
	res.Decisions = make(map[types.ProcessID]types.Value, len(nodes))
	res.Rounds = make(map[types.ProcessID]int, len(nodes))
	res.AllDecided = true
	obs := check.ConsensusObservation{
		Proposals: make(map[types.ProcessID]types.Value, len(nodes)),
		Decisions: make(map[types.ProcessID][]types.Value, len(nodes)),
		Quiesced:  true,
	}
	var roundSum int
	for _, nd := range nodes {
		id := nd.ID()
		obs.Correct = append(obs.Correct, id)
		obs.Proposals[id] = nd.Proposal()
		if nd.Done() {
			res.Halted++
		}
		if cn, ok := nd.(*core.Node); ok {
			res.PrunedLate += cn.Stats().PrunedLate
			res.RBCCompacted += cn.RBCCompacted()
			res.JustificationsRetained += cn.JustificationsRetained()
		}
		if v, ok := nd.Decided(); ok {
			obs.Decisions[id] = []types.Value{v}
			res.Decisions[id] = v
			r := nd.DecidedRound()
			res.Rounds[id] = r
			roundSum += r
			if r > res.MaxRound {
				res.MaxRound = r
			}
		} else {
			res.AllDecided = false
		}
	}
	if len(res.Rounds) > 0 {
		res.MeanRounds = float64(roundSum) / float64(len(res.Rounds))
	}
	res.Violations = check.Consensus(obs)
}

// proposalFor derives the i-th correct process's input.
func proposalFor(cfg Config, i int, p types.ProcessID) types.Value {
	switch cfg.Inputs {
	case InputUnanimous1:
		return types.One
	case InputSplit:
		return types.Value(i % 2)
	case InputRandom:
		return types.Value(mixBits(cfg.Seed, int64(p)) & 1)
	default: // unanimous-0 and the zero value
		return types.Zero
	}
}

// mixBits is a small deterministic mixer for input assignment.
func mixBits(seed, p int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(p)*0xBF58476D1CE4E5B9
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	x ^= x >> 32
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}

// splitGroups halves the correct processes (for SplitBrain and partition
// scheduling).
func splitGroups(correct []types.ProcessID) (a, b []types.ProcessID) {
	half := (len(correct) + 1) / 2
	return correct[:half], correct[half:]
}

// engines holds each protocol's constructor. All of them take the one
// agreement-engine config, core.Config, and refuse the fields they cannot
// honour, so a new engine joins as one row; the node it builds re-arms with
// its Reset.
var engines = map[Protocol]func(core.Config) (node, error){
	ProtocolBracha: func(c core.Config) (node, error) { return core.New(c) },
	ProtocolBenOr:  func(c core.Config) (node, error) { return baseline.New(c) },
}

// buildCorrect constructs a correct node of the protocol.
func buildCorrect(protocol Protocol, c core.Config) (node, error) {
	engine, ok := engines[protocol]
	if !ok {
		return nil, fmt.Errorf("%w: protocol %v", ErrBadConfig, protocol)
	}
	nd, err := engine(c)
	if err != nil {
		return nil, fmt.Errorf("%w: %v: %w", ErrBadConfig, protocol, err)
	}
	return nd, nil
}

// rearmAdversary re-arms adv, the node buildAdversary built for Byzantine
// process p on an earlier arm of the same config, for cfg's seed. The
// equivocators forget their slots in their own Start and the forger holds
// no state, so they need nothing here; a silent process has no node.
func rearmAdversary(cfg Config, spec quorum.Spec, p types.ProcessID, peers []types.ProcessID, adv sim.Node) error {
	switch a := adv.(type) {
	case *adversary.Liar:
		return a.Reset(liarConfig(cfg, spec, p, peers))
	case *adversary.CrashAfter:
		return a.Reset(crashConfig(cfg, spec, p, peers), crashBudget(cfg, p))
	case *adversary.SplitBrain:
		return a.Reset(cfg.Seed + 3)
	default:
		return nil
	}
}

// buildAdversary constructs one Byzantine node (nil for silent: absence is
// the behaviour).
func buildAdversary(cfg Config, spec quorum.Spec, p types.ProcessID, peers []types.ProcessID,
	groupA, groupB []types.ProcessID) (sim.Node, error) {
	switch cfg.Adversary {
	case AdvSilent:
		return nil, nil
	case AdvEquivocator:
		if cfg.Protocol == ProtocolBenOr {
			return adversary.NewPlainEquivocator(p, peers), nil
		}
		return &adversary.Equivocator{Me: p, Peers: peers}, nil
	case AdvLiar:
		if cfg.Protocol == ProtocolBenOr {
			return adversary.NewPlainEquivocator(p, peers), nil
		}
		return adversary.NewLiar(liarConfig(cfg, spec, p, peers))
	case AdvDecideForger:
		return &adversary.DecideForger{Me: p, Peers: peers, V: types.Value(int(p) % 2)}, nil
	case AdvSplitBrain:
		return adversary.NewSplitBrain(p, peers, spec, groupA, groupB, cfg.Seed+3)
	case AdvCrashMidway:
		if cfg.Protocol == ProtocolBenOr {
			return nil, nil // Ben-Or baseline: model as silent
		}
		return adversary.NewCrashAfter(crashConfig(cfg, spec, p, peers), crashBudget(cfg, p))
	default:
		return nil, fmt.Errorf("%w: adversary %v", ErrBadConfig, cfg.Adversary)
	}
}

// liarConfig is the liar's engine: a genuine node proposing 0 on its own
// local coin.
func liarConfig(cfg Config, spec quorum.Spec, p types.ProcessID, peers []types.ProcessID) core.Config {
	return core.Config{
		Me: p, Peers: peers, Spec: spec,
		Coin:     coin.NewLocal(cfg.Seed + 7777*int64(p)),
		Proposal: types.Zero,
	}
}

// crashConfig is the crash-midway process's engine until it crashes.
func crashConfig(cfg Config, spec quorum.Spec, p types.ProcessID, peers []types.ProcessID) core.Config {
	return core.Config{
		Me: p, Peers: peers, Spec: spec,
		Coin:     coin.NewLocal(cfg.Seed + 991*int64(p)),
		Proposal: types.Value(int(p) % 2),
	}
}

// crashBudget places the crash somewhere inside the first round's traffic,
// varying by seed and process so colluders die at different points.
func crashBudget(cfg Config, p types.ProcessID) int {
	return 10 + int((cfg.Seed+int64(p)*7)%40)
}

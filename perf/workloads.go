package main

import (
	"fmt"
	"math"

	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/sim"
)

// sample is what one repetition of a workload produced, in simulated units:
// a pure function of (workload, seed, scale), so every repetition of a run
// must return the identical sample. An op is a committed log entry on smr_*
// workloads and one decided consensus run on the other two.
type sample struct {
	Ops       int
	Attempted int    // ops tried, at least 1
	Failed    int    // ops that broke an expectation, at most Attempted
	Why       string // the first offending field ("" when Failed == 0)

	Messages   int64
	Deliveries int64
	WireBytes  int64
	Ticks      int64 // Σ EndTime: simulated latency with uniform 1..20 tick delays
	Dropped    int64
	Rounds     float64 // Σ MeanRounds (consensus workloads; SMRResult has none)
	Recovery   int     // entries the revived victim committed itself

	LogDigest, StateDigest uint64
}

// fail charges n failed ops to the named field.
func (s *sample) fail(n int, field string) {
	s.Failed = min(s.Failed+n, s.Attempted)
	if s.Why == "" {
		s.Why = field
	}
}

// instance is one workload with its inputs generated.
type instance interface {
	// run is one repetition through the runner's public entry point, with
	// the runner's Telemetry switch off or on.
	run(telemetry bool) (sample, *sim.Telemetry, error)
	// bare runs a benchmark-built cluster of the same shape, its nodes
	// behind spanNode when tr is non-nil.
	bare(tr *tracer) (bareStats, error)
}

// workload is one named, seeded input set. Sizes are for scale 1 and were
// chosen so one repetition takes 1.2–1.5 s on the 2-core container the
// benchmark was written on: a run of run_seconds then holds about ten
// repetitions, whose median is what is reported.
type workload struct {
	name string
	why  string
	new  func(seed int64, scale float64) instance
}

var workloads = []workload{
	{
		name: "smr_plain_n16",
		why:  "agreement-dominated steady state (RunSMR n=16, 64 slots x 16 short commands, local coin): time goes to smr/rbc/validate/core handlers and the sim loop; a codec change must show nothing here",
		new: func(seed int64, scale float64) instance {
			return smrInstance{smrShape(seed, scaled(64, scale, 2), 16, 0, false)}
		},
	},
	{
		name: "smr_coded_n16",
		why:  "dissemination-dominated (same cluster, coded RBC, 40 slots x 32 KiB bodies, k=6): rscode, SHA-256 cross-checksums and the fragment path carry ~40% of the wall; the workload gf256 kernels must move",
		new: func(seed int64, scale float64) instance {
			return smrInstance{smrShape(seed, scaled(40, scale, 2), 16, 2048, true)}
		},
	},
	{
		name: "smr_ckpt_restart_n16",
		why:  "fault-injected run (RestartCatchupSpec n=16, 64 slots, checkpoint every 8, common coin): a replica is killed and revived empty, so ckpt, coin dealers, shamir, auth and state transfer run",
		new: func(seed int64, scale float64) instance {
			slots, every := scaled(64, scale, 12), 8
			if slots < 3*every {
				every = 2 // smoke sizes: keep several cuts inside the run
			}
			cfg := runner.RestartCatchupSpec(16, slots, every, seed)
			cfg.Coin = runner.CoinCommon
			cfg.Batch = 4
			cfg.Commands = 64
			return smrInstance{cfg}
		},
	},
	{
		name: "sweep_n7",
		why:  "the researcher's sweep (SweepSeeds, 800 short runs, n=7, liar adversary, rushed Byzantine, 2 workers): per-run construction and the worker pool are a large share, handler work the smallest",
		new: func(seed int64, scale float64) instance {
			return consensusInstance{
				cfg: runner.Config{
					N: 7, F: 2, Byzantine: -1,
					Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
					Adversary: runner.AdvLiar, Scheduler: runner.SchedRushByz,
					Inputs: runner.InputSplit,
				},
				seeds:   seedList(seed, scaled(800, scale, 4)),
				workers: 2,
			}
		},
	},
	{
		name: "consensus_n64",
		why:  "the scale point (runner.Run on 3 seeds, n=64 f=21, silent faults, common coin, FIFO links, ~490k deliveries a run): n^2 tables, wide bitsets, deep event queue; catches n=16 tuning that loses at n=64",
		new: func(seed int64, scale float64) instance {
			return consensusInstance{
				cfg: runner.Config{
					N: 64, F: quorum.MaxByzantine(64), Byzantine: -1,
					Protocol: runner.ProtocolBracha, Coin: runner.CoinCommon,
					// FIFO links: with plain uniform delays every run at this n
					// ends at tick 200 exactly (each phase waits out the
					// maximum delay), and sim_ticks_per_op could never move.
					Adversary: runner.AdvSilent, Scheduler: runner.SchedFIFO,
					Inputs: runner.InputSplit,
				},
				seeds:   seedList(seed, scaled(3, scale, 1)),
				workers: 1,
			}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func scaled(base int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(base)*scale)))
}

// seedList derives n run seeds from the workload seed.
func seedList(seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = seed*1_000_003 + int64(i)
	}
	return seeds
}

// smrShape is the n=16 replicated-log cluster of the two steady-state
// workloads: every proposing turn finds a full batch preloaded.
func smrShape(seed int64, slots, batch, commandBytes int, coded bool) runner.SMRConfig {
	const n, depth = 16, 2
	turns := (slots+n-1)/n + depth
	return runner.SMRConfig{
		N: n, F: quorum.MaxByzantine(n),
		Slots: slots, Batch: batch, Depth: depth,
		Commands: turns * batch, CommandBytes: commandBytes, Coded: coded,
		Coin: runner.CoinLocal, Seed: seed,
	}
}

// smrInstance is a replicated-log workload.
type smrInstance struct{ cfg runner.SMRConfig }

func (in smrInstance) run(telemetry bool) (sample, *sim.Telemetry, error) {
	cfg := in.cfg
	cfg.Telemetry = telemetry
	res, err := runner.RunSMR(cfg)
	if err != nil {
		return sample{}, nil, err
	}
	return smrSample(res), res.Telemetry, nil
}

// smrSample folds one RunSMR result and its correctness expectations.
func smrSample(r *runner.SMRResult) sample {
	s := sample{
		Ops:        r.Entries,
		Attempted:  max(r.Entries, 1),
		Messages:   int64(r.Messages),
		Deliveries: int64(r.Deliveries),
		WireBytes:  r.WireBytes,
		Ticks:      int64(r.EndTime),
		Dropped:    int64(r.Dropped),
		Recovery:   r.VictimCommitted,
		LogDigest:  r.LogDigest, StateDigest: r.StateDigest,
	}
	for _, c := range []struct {
		n     int
		field string
	}{
		{r.Mismatches, "Mismatches"},
		{r.DuplicateCommands, "DuplicateCommands"},
		{r.SubmitDropped, "SubmitDropped"},
		{r.SuffixDivergence, "SuffixDivergence"},
	} {
		if c.n > 0 {
			s.fail(c.n, fmt.Sprintf("%s = %d", c.field, c.n))
		}
	}
	// These void the whole run, so every op counts as failed.
	whole := func(bad bool, field string) {
		if bad {
			s.fail(s.Attempted, field)
		}
	}
	whole(!r.FullStream, "FullStream = false")
	whole(r.Exhausted, "Exhausted = true")
	if r.Config.Restart != nil {
		whole(r.VictimDown, "VictimDown = true")
		whole(r.Transfers < 1, fmt.Sprintf("Transfers = %d, want >= 1", r.Transfers))
		whole(r.VictimCommitted < 1, fmt.Sprintf("VictimCommitted = %d, want >= 1", r.VictimCommitted))
	}
	return s
}

// consensusInstance is a set of single-decision consensus runs.
type consensusInstance struct {
	cfg     runner.Config
	seeds   []int64
	workers int // 1: runner.Run seed by seed; more: runner.SweepSeeds
}

func (in consensusInstance) run(telemetry bool) (sample, *sim.Telemetry, error) {
	cfg := in.cfg
	cfg.Telemetry = telemetry
	var results []*runner.Result
	if in.workers > 1 {
		var err error
		if results, err = runner.SweepSeeds(cfg, in.seeds, in.workers); err != nil {
			return sample{}, nil, err
		}
	} else {
		for _, seed := range in.seeds {
			cfg.Seed = seed
			res, err := runner.Run(cfg)
			if err != nil {
				return sample{}, nil, err
			}
			results = append(results, res)
		}
	}
	var s sample
	var tele *sim.Telemetry
	if telemetry {
		tele = sim.NewTelemetry()
	}
	for _, r := range results {
		s.addRun(r)
		tele.Merge(r.Telemetry)
	}
	return s, tele, nil
}

// addRun folds one consensus run and its correctness expectations.
func (s *sample) addRun(r *runner.Result) {
	s.Messages += int64(r.Messages)
	s.Deliveries += int64(r.Deliveries)
	s.WireBytes += r.WireBytes
	s.Ticks += int64(r.EndTime)
	s.Dropped += int64(r.Dropped)
	s.Rounds += r.MeanRounds
	s.Attempted++
	switch {
	case len(r.Violations) > 0:
		s.fail(1, fmt.Sprintf("seed %d: Violations = %v", r.Config.Seed, r.Violations))
	case !r.AllDecided:
		s.fail(1, fmt.Sprintf("seed %d: AllDecided = false", r.Config.Seed))
	case r.Exhausted:
		s.fail(1, fmt.Sprintf("seed %d: Exhausted = true", r.Config.Seed))
	default:
		s.Ops++
	}
}

// simulatedMetrics renders the sample's end-to-end costs per op.
func (s sample) simulatedMetrics(m metricSet) {
	ops := float64(max(s.Ops, 1))
	m.set("msgs_per_op", float64(s.Messages)/ops)
	m.set("wire_kb_per_op", float64(s.WireBytes)/1024/ops)
	m.set("sim_ticks_per_op", float64(s.Ticks)/ops)
	m.set("deliveries_per_op", float64(s.Deliveries)/ops)
}

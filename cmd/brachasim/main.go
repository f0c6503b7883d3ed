// Command brachasim runs one configured consensus simulation and reports
// the outcome: decisions, rounds, message counts, checker verdicts, and
// optionally the full event trace.
//
// Examples:
//
//	brachasim -n 7 -f 2 -adversary liar -coin common -seed 42
//	brachasim -n 4 -f 1 -byzantine 2 -adversary split-brain -scheduler rush-byz
//	brachasim -n 7 -f 2 -protocol benor -adversary equivocator -trace
//	brachasim -n 7 -f 2 -adversary liar -scheduler adaptive-rush
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/check"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "brachasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brachasim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 7, "number of processes")
		f         = fs.Int("f", 2, "assumed fault bound (thresholds derive from this)")
		byz       = fs.Int("byzantine", -1, "actual faulty processes (-1 = f)")
		protocol  = fs.String("protocol", "bracha", "protocol: "+runner.Protocols.Names())
		coinKind  = fs.String("coin", "common", "coin: "+runner.Coins.Names())
		adv       = fs.String("adversary", "silent", "adversary: "+runner.Adversaries.Names())
		scheduler = fs.String("scheduler", "uniform", "scheduler: "+runner.Schedulers.Names())
		inputs    = fs.String("inputs", "split", "inputs: "+runner.InputPatterns.Names())
		seed      = fs.Int64("seed", 1, "run seed (replays are exact)")
		maxDeliv  = fs.Int("max-deliveries", 0, "delivery budget (0 = default)")
		maxRounds = fs.Int("max-rounds", 0, "round budget (0 = default)")
		showTrace = fs.Bool("trace", false, "dump the full event trace")
		noVal     = fs.Bool("no-validation", false, "ablation A1: disable message validation")
		noGadget  = fs.Bool("no-decide-gadget", false, "ablation A2: disable DECIDE amplification")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := runner.Config{
		N: *n, F: *f, Byzantine: *byz,
		Seed:                *seed,
		MaxDeliveries:       *maxDeliv,
		MaxRounds:           *maxRounds,
		Trace:               *showTrace,
		DisableValidation:   *noVal,
		DisableDecideGadget: *noGadget,
	}
	var err error
	if cfg.Protocol, err = runner.Protocols.Parse(*protocol); err != nil {
		return err
	}
	if cfg.Coin, err = runner.Coins.Parse(*coinKind); err != nil {
		return err
	}
	if cfg.Adversary, err = runner.Adversaries.Parse(*adv); err != nil {
		return err
	}
	if cfg.Scheduler, err = runner.Schedulers.Parse(*scheduler); err != nil {
		return err
	}
	if cfg.Inputs, err = runner.InputPatterns.Parse(*inputs); err != nil {
		return err
	}

	res, err := runner.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "config    : %s n=%d f=%d byzantine=%d coin=%s adversary=%s scheduler=%s inputs=%s seed=%d\n",
		cfg.Protocol, cfg.N, cfg.F, res.Config.Byzantine, cfg.Coin, res.Config.Adversary, cfg.Scheduler, cfg.Inputs, cfg.Seed)
	fmt.Fprintf(out, "messages  : sent=%d delivered=%d sim-time=%d exhausted=%v\n",
		res.Messages, res.Deliveries, res.EndTime, res.Exhausted)
	fmt.Fprintf(out, "decisions :")
	if len(res.Decisions) == 0 {
		fmt.Fprintf(out, " none")
	}
	for _, p := range sortedKeys(res.Decisions) {
		fmt.Fprintf(out, " %v=%v(r%d)", p, res.Decisions[p], res.Rounds[p])
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "rounds    : mean=%.2f max=%d all-decided=%v\n", res.MeanRounds, res.MaxRound, res.AllDecided)
	fmt.Fprintf(out, "violations: %s\n", check.Render(res.Violations))

	if *showTrace && res.Recorder != nil {
		fmt.Fprintln(out, "--- trace ---")
		for _, e := range res.Recorder.Events() {
			if e.Kind == trace.KindSend || e.Kind == trace.KindDeliver {
				continue // protocol-level events only; raw traffic drowns them
			}
			fmt.Fprintln(out, e)
		}
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("run violated %d properties", len(res.Violations))
	}
	return nil
}

func sortedKeys(m map[types.ProcessID]types.Value) []types.ProcessID {
	keys := make([]types.ProcessID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

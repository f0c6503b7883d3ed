// Command bench regenerates every table and figure of the evaluation
// (EXPERIMENTS.md) and drives each plane of the system from the command line.
// It runs one subcommand (`bench` alone lists them), and each subcommand
// takes only its own flags (`bench <subcommand> -h` lists them).
//
// Independent runs are fanned across a worker pool; -workers 1 is serial and,
// by the sweep engine's determinism contract, prints the same numbers. Apart
// from exp's timing lines and sweep's peak-heap line, stdout is a pure
// function of the flags: wall-clock rates go to stderr, and so does the heap
// sample under -json. Interrupting a checkpointed sweep or search (SIGINT)
// saves a final checkpoint and exits cleanly; rerunning with -resume
// continues where it stopped and ends byte-identical to an uninterrupted
// walk.
//
// Examples:
//
//	bench exp -quick -json > BENCH_seed.json     # committed baseline snapshot
//	bench exp -experiment E6 -runs 100 -csv
//	bench sweep -seeds 1:10001 -n 64 -scenario equivocation-rush -checkpoint ck.json
//	bench sweep -seeds 1:10001 -n 64 -scenario equivocation-rush -checkpoint ck.json -resume
//	bench search -family adaptive -n 16 -seeds 1:9
//	bench smr -slots 64 -n 16 -ckpt-every 8 -coded   # same digests, fewer wire bytes
//	bench throughput -entries 64 -n 16 -batch 1,8 -pipeline 2
//	bench telemetry -n 16 -runs 5 -json > telemetry.json
//	bench run -n 7 -adversary liar -scheduler adaptive-rush -trace run.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/sim"
)

// commands is the subcommand table, in the order usage lists it.
var commands = []struct {
	name, doc string
	run       func(args []string, out io.Writer) error
}{
	{"exp", "the experiment tables E1–E14, E16 and the ablations A1–A4", runExp},
	{"scenarios", "list the property scenarios and the checkpoint attacks", runScenarios},
	{"sweep", "one property scenario across a seed range", runSweep},
	{"search", "scheduler-parameter search for liveness cliffs", runSearch},
	{"smr", "one replicated-log workload", runSMR},
	{"throughput", "the committed-entries grid over batch × pipeline depth", runThroughput},
	{"telemetry", "per-kind wire metrics and phase histograms per schedule family", runTelemetry},
	{"run", "one consensus run, optionally dumping its causal trace", runConsensus},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	msg := "no subcommand"
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], out)
			}
		}
		msg = fmt.Sprintf("unknown subcommand %q", args[0])
	}
	for _, c := range commands {
		msg += fmt.Sprintf("\n  %-10s  %s", c.name, c.doc)
	}
	return errors.New(msg)
}

// parse parses a subcommand's flags. A leftover positional argument is an
// error: `bench smr 64` must not run with the default slot count.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

// clusterFlags registers -n and -f; resolve f with faultBound.
func clusterFlags(fs *flag.FlagSet, n int) (*int, *int) {
	return fs.Int("n", n, "system size"),
		fs.Int("f", -1, "fault bound (negative = ⌊(n−1)/3⌋, the optimal resilience; 0 = fault-free)")
}

// faultBound resolves a negative -f to ⌊(n−1)/3⌋.
func faultBound(n, f int) int {
	if f < 0 {
		return quorum.MaxByzantine(n)
	}
	return f
}

func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker goroutines (0 = all cores, 1 = serial; results identical)")
}

func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// stopper returns the Stop hook of a checkpointed walk: it reports true once
// SIGINT arrives, or after stopAfter calls when stopAfter > 0 (CI smoke).
// Stopping without a checkpoint loses all progress, so that is refused before
// any work starts. Call release when the walk returns.
func stopper(stopAfter int64, checkpoint string) (stop func() bool, release func(), err error) {
	if stopAfter > 0 && checkpoint == "" {
		return nil, nil, errors.New("-stop-after requires -checkpoint (stopping without one loses all progress)")
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	remaining := stopAfter
	return func() bool {
		select {
		case <-sigc:
			return true
		default:
		}
		if stopAfter > 0 {
			remaining--
			return remaining <= 0
		}
		return false
	}, func() { signal.Stop(sigc) }, nil
}

func runExp(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench exp", flag.ContinueOnError)
	var (
		id      = fs.String("experiment", "", "run a single experiment (E1..E14, E16, A1..A4); empty = all")
		runs    = fs.Int("runs", 0, "repetitions per configuration (0 = default)")
		seed    = fs.Int64("seed", 1, "base seed")
		quick   = fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut = fs.Bool("json", false, "emit JSON instead of aligned tables")
		workers = workersFlag(fs)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *jsonOut && *csv {
		return errors.New("pick one of -json and -csv")
	}
	if *runs < 0 {
		return fmt.Errorf("exp wants -runs ≥ 0, got %d", *runs)
	}
	opts := experiments.Options{Runs: *runs, Seed: *seed, Quick: *quick, Workers: *workers}

	list := experiments.All()
	if *id != "" {
		e, err := experiments.ByID(*id)
		if err != nil {
			return err
		}
		list = []experiments.Experiment{e}
	}

	// jsonTable is the stable machine-readable form of one experiment,
	// recorded by BENCH_seed.json as the repository's baseline snapshot.
	type jsonTable struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Table   string     `json:"table"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	var jsonTables []jsonTable

	for _, e := range list {
		start := time.Now()
		tbl, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch {
		case *jsonOut:
			jsonTables = append(jsonTables, jsonTable{
				ID: e.ID, Title: e.Title, Table: tbl.Title,
				Headers: tbl.Headers, Rows: tbl.Rows(),
			})
		case *csv:
			fmt.Fprintf(out, "# %s: %s\n%s\n", e.ID, e.Title, tbl.CSV())
		default:
			fmt.Fprintf(out, "%s\n(%s in %v)\n\n", tbl.Render(), e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if *jsonOut {
		return writeJSON(out, jsonTables)
	}
	return nil
}

// runScenarios prints the property-scenario battery and the
// checkpoint-adversary battery (the smr -ckpt-attack names).
func runScenarios(args []string, out io.Writer) error {
	if err := parse(flag.NewFlagSet("bench scenarios", flag.ContinueOnError), args); err != nil {
		return err
	}
	for _, sc := range runner.Scenarios() {
		kind := "consensus"
		if sc.RBC {
			kind = "rbc"
		}
		fmt.Fprintf(out, "%-18s %-10s %s\n", sc.Name, kind, sc.Doc)
	}
	for _, sc := range runner.CkptScenarios() {
		fmt.Fprintf(out, "%-18s %-10s smr -ckpt-every … -ckpt-attack %s (scenario schedule: %v)\n",
			sc.Name, "ckpt", sc.Attack, sc.Sched)
	}
	return nil
}

// runSMR executes one replicated-log workload (the checkpoint mode). The
// "digest" lines are the byte-stable comparison surface: CI runs the same
// workload with -ckpt-every on and off and diffs them — checkpointing must
// move memory, never what commits.
func runSMR(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench smr", flag.ContinueOnError)
	n, fFlag := clusterFlags(fs, 16)
	var (
		slots      = fs.Int("slots", 0, "slots to commit")
		seed       = fs.Int64("seed", 1, "seed")
		coded      = fs.Bool("coded", false, "erasure-coded dissemination (AVID-style coded RBC); committed digests are identical either way, wire bytes drop")
		ckptEvery  = fs.Int("ckpt-every", 0, "checkpoint cadence in slots (0 = checkpointing off); committed digests are identical either way")
		restart    = fs.Bool("restart", false, "kill the last replica mid-run and revive it empty (restart-catchup; requires -ckpt-every)")
		ckptDir    = fs.String("ckpt-dir", "", "durable checkpoint store directory (replicas persist and, on a rerun over the same directory, boot from their records; requires -ckpt-every)")
		ckptAttack = fs.String("ckpt-attack", "", "checkpoint-plane attack one replica mounts (see bench scenarios; requires -ckpt-every); committed digests must match the attack-free run")
		jsonOut    = fs.Bool("json", false, "emit JSON")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	// RunSMR's config check is the one validator: it refuses a non-positive
	// -slots, and -restart, -ckpt-dir or -ckpt-attack without -ckpt-every.
	f := faultBound(*n, *fFlag)
	cfg := runner.SMRConfig{
		N: *n, F: f,
		Slots:           *slots,
		Commands:        8,
		CheckpointEvery: *ckptEvery,
		Coin:            runner.CoinCommon,
		Seed:            *seed,
		CkptDir:         *ckptDir,
		Coded:           *coded,
	}
	if *restart {
		cfg.Restart = &runner.SMRRestart{CrashAfter: 80 * *n, ReviveAfter: 160 * *n}
	}
	if *ckptAttack != "" {
		attack, err := adversary.ParseCkptAttack(*ckptAttack)
		if err != nil {
			return err
		}
		cfg.Attack = attack
	}
	res, err := runner.RunSMR(cfg)
	if err != nil {
		return err
	}
	switch {
	case res.Exhausted:
		return fmt.Errorf("smr workload exhausted its delivery budget at %d deliveries", res.Deliveries)
	case res.Mismatches > 0:
		return fmt.Errorf("smr workload: %d cross-replica log mismatches (agreement violation)", res.Mismatches)
	case !res.FullStream:
		return fmt.Errorf("smr workload: reference entry stream gapped; digests void")
	}
	if *jsonOut {
		return writeJSON(out, struct {
			N           int    `json:"n"`
			F           int    `json:"f"`
			Slots       int    `json:"slots"`
			Seed        int64  `json:"seed"`
			CkptEvery   int    `json:"ckptEvery"`
			LogDigest   string `json:"logDigest"`
			StateDigest string `json:"stateDigest"`
			Cut         int    `json:"certifiedCut"`
			LogRetained int    `json:"logRetained"`
			RBCRecords  int    `json:"rbcRecords"`
			RBCBytes    int    `json:"rbcDigestBytes"`
			DealerSlots int    `json:"dealerSlots"`
			Transfers   int    `json:"transfers"`
			VictimDone  int    `json:"victimCommitted"`
			Restored    int    `json:"restoredCuts"`
			StoreErrors int    `json:"storeErrors"`
			Retries     int    `json:"transferRetries"`
			Stale       int    `json:"staleResponses"`
			Unverified  int    `json:"unverifiableResponses"`
			Deliveries  int    `json:"deliveries"`
			Dropped     int    `json:"dropped"`
			Spoofed     int    `json:"spoofed"`
			Coded       bool   `json:"coded"`
			WireBytes   int64  `json:"wireBytes"`
		}{*n, f, *slots, *seed, *ckptEvery,
			fmt.Sprintf("%016x", res.LogDigest), fmt.Sprintf("%016x", res.StateDigest),
			res.CertifiedCut, res.LogRetained, res.RBCRecords, res.RBCDigestBytes,
			res.DealerSlots, res.Transfers, res.VictimCommitted,
			res.RestoredCuts, res.StoreErrors, res.TransferRetries,
			res.StaleResponses, res.UnverifiableResponses, res.Deliveries,
			res.Dropped, res.Spoofed,
			*coded, res.WireBytes})
	}
	fmt.Fprintf(out, "smr workload: n=%d f=%d slots=%d seed=%d ckpt-every=%d restart=%v coded=%v\n",
		*n, f, *slots, *seed, *ckptEvery, *restart, *coded)
	fmt.Fprintf(out, "digest log @%d:   %016x\n", *slots, res.LogDigest)
	fmt.Fprintf(out, "digest state @%d: %016x\n", *slots, res.StateDigest)
	fmt.Fprintf(out, "residue: log-retained=%d rbc-records=%d rbc-bytes=%d dealer-slots=%d dealer-rounds=%d certified-cut=%d\n",
		res.LogRetained, res.RBCRecords, res.RBCDigestBytes, res.DealerSlots, res.DealerRounds, res.CertifiedCut)
	if *restart {
		fmt.Fprintf(out, "victim: transfers=%d base=%d committed=%d frontier=%d\n",
			res.Transfers, res.VictimBase, res.VictimCommitted, res.VictimSlot)
	}
	if *ckptDir != "" {
		fmt.Fprintf(out, "store: restored-cuts=%d store-errors=%d\n", res.RestoredCuts, res.StoreErrors)
	}
	if *ckptAttack != "" {
		fmt.Fprintf(out, "attack %s: installs=%d retries=%d stale=%d unverifiable=%d\n",
			*ckptAttack, res.TotalInstalls, res.TransferRetries, res.StaleResponses, res.UnverifiableResponses)
	}
	fmt.Fprintf(out, "deliveries=%d messages=%d wire-bytes=%d dropped=%d spoofed=%d\n",
		res.Deliveries, res.Messages, res.WireBytes, res.Dropped, res.Spoofed)
	return nil
}

// parseIntList parses a comma-separated list of integers (the -batch and
// -pipeline grid axes; RunThroughput refuses a non-positive one).
func parseIntList(name, s string) ([]int, error) {
	parts := strings.Split(s, ",")
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// runThroughput executes one committed-entries throughput grid. Every field
// on stdout is deterministic — a pure function of (config, seed), bitwise
// identical at any -workers value, which is exactly what CI diffs. The
// wall-clock rate is telemetry and goes to stderr, where it cannot
// contaminate the byte-stable comparison surface.
func runThroughput(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench throughput", flag.ContinueOnError)
	n, fFlag := clusterFlags(fs, 16)
	var (
		entries   = fs.Int("entries", 0, "entry target per grid point")
		seed      = fs.Int64("seed", 1, "seed")
		batchList = fs.String("batch", "1,4,16", "comma-separated batch sizes (commands per proposal body)")
		pipeList  = fs.String("pipeline", "1,2", "comma-separated dissemination pipeline depths")
		ckptEvery = fs.Int("ckpt-every", 0, "checkpoint cadence in slots (0 = checkpointing off); committed digests are identical either way")
		coded     = fs.Bool("coded", false, "erasure-coded dissemination; committed digests are identical either way, wire bytes drop")
		workers   = workersFlag(fs)
		jsonOut   = fs.Bool("json", false, "emit JSON")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	// RunThroughput's config check refuses a non-positive -entries.
	batches, err := parseIntList("-batch", *batchList)
	if err != nil {
		return err
	}
	depths, err := parseIntList("-pipeline", *pipeList)
	if err != nil {
		return err
	}
	f := faultBound(*n, *fFlag)
	start := time.Now()
	points, err := runner.RunThroughput(runner.SMRConfig{
		N: *n, F: f,
		CheckpointEvery: *ckptEvery,
		Coin:            runner.CoinCommon,
		Coded:           *coded,
		Seed:            *seed,
	}, *entries, batches, depths, *workers)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	total := 0
	for _, p := range points {
		if p.Exhausted {
			return fmt.Errorf("throughput point batch=%d depth=%d exhausted its delivery budget", p.Config.Batch, p.Config.Depth)
		}
		if p.Mismatches > 0 || p.SubmitDropped > 0 || p.DuplicateCommands > 0 {
			return fmt.Errorf("throughput point batch=%d depth=%d unhealthy: mismatches=%d dropped=%d duplicates=%d",
				p.Config.Batch, p.Config.Depth, p.Mismatches, p.SubmitDropped, p.DuplicateCommands)
		}
		total += p.Entries
	}
	fmt.Fprintf(os.Stderr, "bench: throughput grid of %d points committed %d entries in %v wall (%.0f entries/sec; telemetry, not comparable)\n",
		len(points), total, wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	if *jsonOut {
		type pointJSON struct {
			Batch       int    `json:"batch"`
			Depth       int    `json:"depth"`
			Slots       int    `json:"slots"`
			Entries     int    `json:"entries"`
			Deliveries  int    `json:"deliveries"`
			Messages    int    `json:"messages"`
			EndTime     int64  `json:"endTime"`
			WireBytes   int64  `json:"wireBytes"`
			PerKDeliv   string `json:"entriesPerKDeliveries"`
			LogDigest   string `json:"logDigest"`
			StateDigest string `json:"stateDigest"`
		}
		rows := make([]pointJSON, 0, len(points))
		for _, p := range points {
			rows = append(rows, pointJSON{
				p.Config.Batch, p.Config.Depth, p.Config.Slots, p.Entries, p.Deliveries, p.Messages,
				int64(p.EndTime), p.WireBytes, fmt.Sprintf("%.3f", p.EntriesPerKDeliveries()),
				fmt.Sprintf("%016x", p.LogDigest), fmt.Sprintf("%016x", p.StateDigest),
			})
		}
		return writeJSON(out, struct {
			N         int         `json:"n"`
			F         int         `json:"f"`
			Entries   int         `json:"entries"`
			Seed      int64       `json:"seed"`
			CkptEvery int         `json:"ckptEvery"`
			Coded     bool        `json:"coded"`
			Points    []pointJSON `json:"points"`
		}{*n, f, *entries, *seed, *ckptEvery, *coded, rows})
	}
	fmt.Fprintf(out, "throughput: n=%d f=%d entries=%d seed=%d ckpt-every=%d coded=%v\n", *n, f, *entries, *seed, *ckptEvery, *coded)
	fmt.Fprintf(out, "%-6s %-6s %-7s %-8s %-11s %-14s %-13s %-12s %s\n",
		"batch", "depth", "slots", "entries", "deliveries", "ent/kdeliv", "virtual-time", "wire-bytes", "log digest")
	for _, p := range points {
		fmt.Fprintf(out, "%-6d %-6d %-7d %-8d %-11d %-14.3f %-13d %-12d %016x\n",
			p.Config.Batch, p.Config.Depth, p.Config.Slots, p.Entries, p.Deliveries,
			p.EntriesPerKDeliveries(), int64(p.EndTime), p.WireBytes, p.LogDigest)
	}
	return nil
}

// parseSeedRange parses the -seeds value "a:b" into the half-open range
// [a, b).
func parseSeedRange(s string) (runner.SeedRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return runner.SeedRange{}, fmt.Errorf("-seeds wants seedA:seedB, got %q", s)
	}
	from, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return runner.SeedRange{}, fmt.Errorf("-seeds seedA: %w", err)
	}
	to, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return runner.SeedRange{}, fmt.Errorf("-seeds seedB: %w", err)
	}
	r := runner.SeedRange{From: from, To: to}
	if r.Len() <= 0 {
		return runner.SeedRange{}, fmt.Errorf("-seeds range %v is empty", r)
	}
	return r, nil
}

// runSweep executes one streaming property sweep: constant memory at any
// depth, periodic checkpoints with -checkpoint, resumption with -resume.
func runSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench sweep", flag.ContinueOnError)
	n, fFlag := clusterFlags(fs, 16)
	var (
		seedsStr   = fs.String("seeds", "1:9", "seed range seedA:seedB (half-open)")
		scenario   = fs.String("scenario", "equivocation-rush", "adversarial scenario (see bench scenarios)")
		workers    = workersFlag(fs)
		checkpoint = fs.String("checkpoint", "", "checkpoint manifest path (periodic + final saves)")
		resume     = fs.Bool("resume", false, "resume from -checkpoint")
		every      = fs.Int("every", 0, "runs between checkpoint writes (0 = default)")
		stopAfter  = fs.Int64("stop-after", 0, "stop after this many runs this invocation, saving a checkpoint (0 = run to completion)")
		jsonOut    = fs.Bool("json", false, "emit JSON")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	stop, release, err := stopper(*stopAfter, *checkpoint)
	if err != nil {
		return err
	}
	defer release()
	seeds, err := parseSeedRange(*seedsStr)
	if err != nil {
		return err
	}
	sc, err := runner.ScenarioByName(*scenario)
	if err != nil {
		return err
	}
	f := faultBound(*n, *fFlag)

	// Peak-heap tracking: sampled every few hundred completed runs plus
	// once at the end. The sample goes to the human-facing channels only —
	// never into the JSON record, whose bytes must stay machine-independent
	// for resume-equality diffs.
	var peakHeap uint64
	sampleHeap := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peakHeap {
			peakHeap = m.HeapAlloc
		}
	}
	spec, err := sc.SweepSpec(*n, f, seeds)
	if err != nil {
		return err
	}
	spec.Workers = *workers
	spec.Checkpoint, spec.Every, spec.Resume = *checkpoint, *every, *resume
	spec.Stop = stop
	spec.Progress = func(done, total int64) {
		if done%256 == 0 {
			sampleHeap()
		}
		if done%1000 == 0 {
			fmt.Fprintf(os.Stderr, "bench: sweep %s n=%d: %d/%d\n", sc.Name, *n, done, total)
		}
	}
	agg, err := runner.SweepSeedRange(spec)
	sampleHeap()
	heapLine := fmt.Sprintf("peak heap: %.2f MiB (runtime.ReadMemStats, sampled)", float64(peakHeap)/(1<<20))
	stopped := errors.Is(err, runner.ErrStopped)
	if err != nil && !stopped {
		return err
	}
	if stopped && *checkpoint == "" {
		return fmt.Errorf("sweep stopped after %d runs with no -checkpoint; progress lost", agg.Runs)
	}

	switch {
	case *jsonOut:
		if stopped {
			// Keep stdout parseable: structured stop record there, the
			// human notice on stderr.
			fmt.Fprintf(os.Stderr, "bench: sweep stopped after %d/%d runs; checkpoint saved to %s — rerun with -resume to continue\n",
				agg.Runs, seeds.Len(), *checkpoint)
		}
		// Heap numbers vary run to run; keep them off the byte-stable JSON.
		fmt.Fprintln(os.Stderr, "bench: "+heapLine)
		if err := writeJSON(out, struct {
			Scenario   string            `json:"scenario"`
			N          int               `json:"n"`
			F          int               `json:"f"`
			Seeds      runner.SeedRange  `json:"seeds"`
			Stopped    bool              `json:"stopped,omitempty"`
			Completed  int64             `json:"completed,omitempty"`
			Checkpoint string            `json:"checkpoint,omitempty"`
			Aggregate  *runner.Aggregate `json:"aggregate"`
		}{sc.Name, *n, f, seeds, stopped, stoppedAt(stopped, agg), stoppedCk(stopped, *checkpoint), agg}); err != nil {
			return err
		}
	case stopped:
		fmt.Fprintf(out, "sweep stopped after %d/%d runs (checks so far: %s); checkpoint saved to %s — rerun with -resume to continue\n%s\n",
			agg.Runs, seeds.Len(), agg.Checks.String(), *checkpoint, heapLine)
	default:
		title := fmt.Sprintf("sweep %s: n=%d f=%d seeds %v", sc.Name, *n, f, seeds)
		fmt.Fprintf(out, "%schecks: %s\n%s\n", agg.Table(title).Render(), agg.Checks.String(), heapLine)
	}
	// Violations are never waived, whether the sweep completed or was
	// interrupted mid-way.
	if !agg.Checks.Clean() {
		return fmt.Errorf("property violations detected: %s", agg.Checks.String())
	}
	return nil
}

// runSearch executes one scheduler-parameter search (internal/search).
// Stdout — text or JSON — is a pure function of (family, n, f, seeds):
// bitwise identical at any -workers value and across kill/resume points,
// which is exactly what the CI determinism smoke diffs.
func runSearch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench search", flag.ContinueOnError)
	n, fFlag := clusterFlags(fs, 16)
	var (
		family    = fs.String("family", "", "schedule family whose parameter lattice to walk: "+strings.Join(search.Families(), ", "))
		seedsStr  = fs.String("seeds", "1:9", "seed block seedA:seedB (half-open) every point is scored over")
		workers   = workersFlag(fs)
		frontier  = fs.String("checkpoint", "", "frontier file path (periodic + final saves)")
		resume    = fs.Bool("resume", false, "resume from -checkpoint")
		stopAfter = fs.Int64("stop-after", 0, "stop after this many points this invocation, saving the frontier (0 = run to completion)")
		jsonOut   = fs.Bool("json", false, "emit JSON")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	stop, release, err := stopper(*stopAfter, *frontier)
	if err != nil {
		return err
	}
	defer release()
	seeds, err := parseSeedRange(*seedsStr)
	if err != nil {
		return err
	}
	f := faultBound(*n, *fFlag)
	spec, err := search.FamilySpec(*family, *n, f, seeds)
	if err != nil {
		return err
	}
	spec.Workers = *workers
	spec.Frontier = *frontier
	spec.Resume = *resume
	spec.Stop = stop
	spec.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "bench: search %s n=%d: point %d/%d\n", *family, *n, done, total)
	}

	res, err := search.Grid(spec)
	stopped := errors.Is(err, search.ErrStopped)
	if err != nil && !stopped {
		return err
	}
	if stopped && *frontier == "" {
		return fmt.Errorf("search stopped after %d points with no -checkpoint; progress lost", len(res.Points))
	}
	if stopped {
		fmt.Fprintf(os.Stderr, "bench: search stopped after %d points; frontier saved to %s — rerun with -resume to continue\n",
			len(res.Points), *frontier)
	}

	if *jsonOut {
		if err := writeJSON(out, struct {
			Family  string               `json:"family"`
			Mode    string               `json:"mode"`
			N       int                  `json:"n"`
			F       int                  `json:"f"`
			Seeds   runner.SeedRange     `json:"seeds"`
			Stopped bool                 `json:"stopped,omitempty"`
			Points  []search.PointResult `json:"points"`
			Best    search.PointResult   `json:"best"`
		}{*family, "grid", *n, f, seeds, stopped, res.Points, res.Best}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "search %s (grid): n=%d f=%d seeds %v — %s\n",
			*family, *n, f, seeds, search.FamilyDoc(*family))
		if stopped {
			fmt.Fprintf(out, "stopped after %d points; frontier saved to %s — rerun with -resume to continue\n",
				len(res.Points), *frontier)
		}
		fmt.Fprintf(out, "%-4s %-40s %-10s %-10s %-11s %-12s %-10s %s\n",
			"rank", "point", "undecided", "exhausted", "violations", "mean rounds", "mean time", "score")
		for i, p := range res.Points {
			fmt.Fprintf(out, "%-4d %-40s %-10d %-10d %-11d %-12.2f %-10.1f %.2f\n",
				i+1, p.Key, p.Runs-p.Decided, p.Exhausted, p.Violations, p.MeanRounds, p.MeanTime, p.Score)
		}
	}
	// A safety violation at any searched point is a finding, never waived.
	var violations int64
	for _, p := range res.Points {
		violations += p.Violations
	}
	if violations > 0 {
		return fmt.Errorf("search found %d property violations — inspect the frontier", violations)
	}
	return nil
}

// stoppedAt and stoppedCk populate the stop-record fields only for
// interrupted sweeps, so omitempty elides them on completion and the JSON of
// a resumed run stays byte-identical to an uninterrupted one's.
func stoppedAt(stopped bool, agg *runner.Aggregate) int64 {
	if !stopped {
		return 0
	}
	return agg.Runs
}

func stoppedCk(stopped bool, checkpoint string) string {
	if !stopped {
		return ""
	}
	return checkpoint
}

// runTelemetry sweeps every scheduler family of the E16 comparison
// (uniform, reorder, adaptive-cliff — same adversary, coin, and inputs
// throughout) over a seed block with the telemetry plane attached, per-run
// sinks merged in index order. Every byte of the output is deterministic — a
// pure function of (flags, seed), bitwise identical at any -workers value and
// any GOMAXPROCS, which is exactly what the CI telemetry determinism smoke
// diffs.
func runTelemetry(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench telemetry", flag.ContinueOnError)
	n, fFlag := clusterFlags(fs, 16)
	var (
		runs    = fs.Int("runs", 5, "seeds per family")
		seed    = fs.Int64("seed", 1, "base seed")
		workers = workersFlag(fs)
		jsonOut = fs.Bool("json", false, "emit JSON")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *runs <= 0 {
		return fmt.Errorf("telemetry wants a positive -runs, got %d", *runs)
	}
	type familyRecord struct {
		Family     string     `json:"family"`
		N          int        `json:"n"`
		F          int        `json:"f"`
		Runs       int        `json:"runs"`
		Seed       int64      `json:"seed"`
		MeanRounds float64    `json:"meanRounds"`
		Messages   int        `json:"messages"`
		Deliveries int        `json:"deliveries"`
		Dropped    int        `json:"dropped"`
		Spoofed    int        `json:"spoofed"`
		WireBytes  int64      `json:"wireBytes"`
		Telemetry  sim.Report `json:"telemetry"`
	}
	f := faultBound(*n, *fFlag)
	var records []familyRecord
	for _, fam := range experiments.TelemetryFamilies() {
		sum, meanRounds, err := experiments.SweepTelemetry(fam, *n, f, *runs, *seed, *workers)
		if err != nil {
			return err
		}
		records = append(records, familyRecord{
			Family: fam.Name, N: *n, F: f, Runs: *runs, Seed: *seed,
			MeanRounds: meanRounds,
			Messages:   sum.Messages, Deliveries: sum.Deliveries, Dropped: sum.Dropped,
			Spoofed: sum.Spoofed, WireBytes: sum.WireBytes,
			Telemetry: sum.Telemetry.Report(),
		})
	}
	if *jsonOut {
		return writeJSON(out, records)
	}
	for _, rec := range records {
		fmt.Fprintf(out, "telemetry: family=%s n=%d f=%d runs=%d seed=%d\n",
			rec.Family, rec.N, rec.F, rec.Runs, rec.Seed)
		fmt.Fprintf(out, "  rounds=%.2f messages=%d deliveries=%d dropped=%d spoofed=%d wire-bytes=%d\n",
			rec.MeanRounds, rec.Messages, rec.Deliveries, rec.Dropped, rec.Spoofed, rec.WireBytes)
		for _, k := range rec.Telemetry.Kinds {
			fmt.Fprintf(out, "  kind %-10s sent=%-8d delivered=%-8d dropped=%-6d bytes=%-10d lat-p50=%d lat-p99=%d\n",
				k.Kind, k.Sent, k.Delivered, k.Dropped, k.Bytes, k.LatencyP50, k.LatencyP99)
		}
		for _, p := range rec.Telemetry.Phases {
			fmt.Fprintf(out, "  phase %-17s count=%-8d p50=%-6d p99=%-6d max=%d\n",
				p.Phase, p.Count, p.P50, p.P99, p.Max)
		}
	}
	return nil
}

// runConsensus executes one configured consensus run and reports its
// decisions, rounds, message counts and checker verdicts. With -trace it
// also writes the causal event stream as JSONL (one event per line: time,
// kind, process, wire seq, causal parent seq — the format internal/obs and
// external tools consume) and prints the decision critical paths. Both are
// deterministic: two runs of the same flags write byte-identical dumps,
// which the CI trace smoke compares.
func runConsensus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	n, fFlag := clusterFlags(fs, 7)
	var (
		byz       = fs.Int("byzantine", -1, "actual faulty processes (-1 = f)")
		protocol  = fs.String("protocol", "bracha", "protocol: "+runner.Protocols.Names())
		coinKind  = fs.String("coin", "common", "coin: "+runner.Coins.Names())
		adv       = fs.String("adversary", "silent", "adversary: "+runner.Adversaries.Names())
		scheduler = fs.String("scheduler", "uniform", "scheduler: "+runner.Schedulers.Names())
		inputs    = fs.String("inputs", "split", "inputs: "+runner.InputPatterns.Names())
		seed      = fs.Int64("seed", 1, "run seed (replays are exact)")
		maxDeliv  = fs.Int("max-deliveries", 0, "delivery budget (0 = default)")
		maxRounds = fs.Int("max-rounds", 0, "round budget (0 = default)")
		tracePath = fs.String("trace", "", "write the causal JSONL event dump to this file and print the decision critical paths")
		noVal     = fs.Bool("no-validation", false, "ablation A1: disable message validation")
		noGadget  = fs.Bool("no-decide-gadget", false, "ablation A2: disable DECIDE amplification")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg := runner.Config{
		N: *n, F: faultBound(*n, *fFlag), Byzantine: *byz,
		Seed:                *seed,
		MaxDeliveries:       *maxDeliv,
		MaxRounds:           *maxRounds,
		Trace:               *tracePath != "",
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
	for _, p := range slices.Sorted(maps.Keys(res.Decisions)) {
		fmt.Fprintf(out, " %v=%v(r%d)", p, res.Decisions[p], res.Rounds[p])
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "rounds    : mean=%.2f max=%d all-decided=%v\n", res.MeanRounds, res.MaxRound, res.AllDecided)
	fmt.Fprintf(out, "violations: %s\n", check.Render(res.Violations))

	if *tracePath != "" {
		file, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := res.Recorder.WriteJSONL(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace     : events=%d -> %s\n", len(res.Recorder.Events()), *tracePath)
		fmt.Fprint(out, obs.Analyze(res.Recorder.Events()).String())
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("run violated %d properties", len(res.Violations))
	}
	return nil
}

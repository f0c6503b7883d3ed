// Command bench regenerates every table and figure of the evaluation
// (EXPERIMENTS.md): E1–E16 plus the ablations A1–A4. Output is aligned text
// tables by default, CSV with -csv, JSON with -json. Independent runs are
// fanned across a worker pool (runner.Sweep); -workers 1 forces the old
// serial behaviour and, by the sweep engine's determinism contract, produces
// the identical numbers.
//
// The -sweep mode runs one adversarial property scenario (see -scenarios)
// across a half-open seed range through the streaming checkpointable engine:
// constant memory at any depth, periodic checkpoints with -checkpoint, and
// resumption with -resume. Interrupting a checkpointed sweep (SIGINT) saves
// a final checkpoint and exits cleanly; rerunning with -resume continues
// where it stopped and, by the determinism contract, ends byte-identical to
// an uninterrupted sweep.
//
// Every sweep reports its sampled peak heap alongside the violation checks
// (stderr in -json mode, whose stdout bytes must stay machine-independent).
//
// Examples:
//
//	bench                  # everything, full size, all cores
//	bench -quick           # everything, smoke size (seconds)
//	bench -experiment E6   # one experiment
//	bench -runs 100        # more repetitions per configuration
//	bench -workers 1       # serial (same numbers, slower)
//	bench -csv > out.csv   # machine-readable output
//	bench -quick -json > BENCH_seed.json   # committed baseline snapshot
//
//	bench -scenarios                       # list property scenarios
//	bench -sweep 1:10001 -n 64 -scenario equivocation-rush \
//	      -checkpoint ck.json              # 10k-seed frontier sweep
//	bench -sweep 1:10001 -n 64 -scenario equivocation-rush \
//	      -checkpoint ck.json -resume      # continue after a kill
//	bench -sweep 1:101 -n 64 -scenario straggler-prune  # late traffic hits pruned rounds
//
// The -throughput mode runs the committed-entries grid (runner.RunThroughput):
// a batch × pipeline-depth sweep over the replicated log, each point sized to
// commit the target entry count. Stdout (text or -json) carries only
// deterministic fields — bitwise identical at any -workers value — while the
// wall-clock entries/sec rate goes to stderr as telemetry:
//
//	bench -throughput 64 -n 16                        # default 1,4,16 × 1,2 grid
//	bench -throughput 64 -n 16 -batch 1,8 -pipeline 2 # explicit axes
//	bench -throughput 32 -n 4 -json -workers 1        # byte-stable record
//
// Both -smr and -throughput accept -coded, switching dissemination to
// erasure-coded reliable broadcast (AVID-style): the digest lines must stay
// bitwise identical to the uncoded run — CI diffs them — while the reported
// wire-bytes drop (that is the whole point; see experiment E14):
//
//	bench -smr 64 -n 16 -ckpt-every 8 -coded          # same digests, fewer bytes
//
// The -telemetry mode attaches the deterministic telemetry plane to a seed
// sweep of each scheduler family (uniform, reorder, adaptive-cliff — same
// adversary/coin/inputs, see experiment E16) and prints the merged per-kind
// wire metrics and phase-latency histograms. Every output byte is a pure
// function of the flags: CI diffs -json output across -workers values and
// GOMAXPROCS settings. The -trace mode runs one traced uniform-schedule run,
// dumps the causal event stream as JSONL (wire seq + causal parent per
// event), and prints the decision critical-path analysis (internal/obs):
//
//	bench -telemetry -n 16 -runs 5 -json > telemetry.json   # diffable record
//	bench -trace run.jsonl -n 16 -seed 7                    # dump + critical paths
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		id      = fs.String("experiment", "", "run a single experiment (E1..E16, A1..A4); empty = all")
		runs    = fs.Int("runs", 0, "repetitions per configuration (0 = default)")
		seed    = fs.Int64("seed", 1, "base seed")
		quick   = fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut = fs.Bool("json", false, "emit JSON instead of aligned tables")
		workers = fs.Int("workers", 0, "sweep worker goroutines (0 = all cores, 1 = serial; results identical)")

		sweep      = fs.String("sweep", "", "streaming property sweep over seed range seedA:seedB (half-open)")
		sweepN     = fs.Int("n", 16, "-sweep: system size")
		sweepF     = fs.Int("f", -1, "-sweep: fault bound (negative = ⌊(n−1)/3⌋, the optimal resilience; 0 = fault-free)")
		scenario   = fs.String("scenario", "equivocation-rush", "-sweep: adversarial scenario (see -scenarios)")
		listScen   = fs.Bool("scenarios", false, "list the property scenarios and exit")
		checkpoint = fs.String("checkpoint", "", "-sweep: checkpoint manifest path (periodic + final saves)")
		resume     = fs.Bool("resume", false, "-sweep: resume from -checkpoint")
		every      = fs.Int("every", 0, "-sweep: runs between checkpoint writes (0 = default)")
		stopAfter  = fs.Int64("stop-after", 0, "-sweep: stop after this many runs this invocation, saving a checkpoint (0 = run to completion)")

		searchFam = fs.String("search", "", "scheduler-parameter search mode: walk a family's parameter lattice hunting liveness cliffs (see internal/search families)")
		seedsStr  = fs.String("seeds", "1:9", "-search: seed block seedA:seedB (half-open) every point is scored over")
		descend   = fs.Bool("descend", false, "-search: coordinate descent instead of the exhaustive grid")

		throughput = fs.Int("throughput", 0, "committed-entries throughput mode: entry target per grid point across the -batch × -pipeline grid")
		batchList  = fs.String("batch", "1,4,16", "-throughput: comma-separated batch sizes (commands per proposal body)")
		pipeList   = fs.String("pipeline", "1,2", "-throughput: comma-separated dissemination pipeline depths")

		telemetry = fs.Bool("telemetry", false, "telemetry mode: per-kind wire metrics and phase-latency histograms across the scheduler families, merged over a seed sweep (deterministic, diffable)")
		traceOut  = fs.String("trace", "", "trace mode: run one traced uniform-schedule consensus run, write the causal JSONL event dump to this file, and print the decision critical-path summary")

		smrSlots   = fs.Int("smr", 0, "run a replicated-log workload of this many slots (the checkpoint/state-transfer mode)")
		coded      = fs.Bool("coded", false, "-smr/-throughput: erasure-coded dissemination (AVID-style coded RBC); committed digests are identical either way, wire bytes drop")
		ckptEvery  = fs.Int("ckpt-every", 0, "-smr/-throughput: checkpoint cadence in slots (0 = checkpointing off); committed digests are identical either way")
		restart    = fs.Bool("restart", false, "-smr: kill the last replica mid-run and revive it empty (restart-catchup; requires -ckpt-every)")
		ckptDir    = fs.String("ckpt-dir", "", "-smr: durable checkpoint store directory (replicas persist and, on a rerun over the same directory, boot from their records; requires -ckpt-every)")
		ckptAttack = fs.String("ckpt-attack", "", "-smr: checkpoint-plane attack one replica mounts (see -scenarios; requires -ckpt-every); committed digests must match the attack-free run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && *csv {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	if *listScen {
		return listScenarios(out)
	}
	// Reject cross-mode flags instead of silently ignoring them: forgetting
	// -sweep must not quietly launch the full experiment battery, and sweep
	// runs must not pretend to honour -seed or -runs.
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if *sweep != "" && set["smr"] {
		return fmt.Errorf("-sweep and -smr are mutually exclusive")
	}
	if set["throughput"] && (*sweep != "" || set["smr"]) {
		return fmt.Errorf("-throughput is mutually exclusive with -sweep and -smr")
	}
	if *searchFam != "" && (*sweep != "" || set["smr"] || set["throughput"]) {
		return fmt.Errorf("-search is mutually exclusive with -sweep, -smr, and -throughput")
	}
	if *telemetry && (*sweep != "" || set["smr"] || set["throughput"] || *searchFam != "" || *traceOut != "") {
		return fmt.Errorf("-telemetry is mutually exclusive with the other modes")
	}
	if *traceOut != "" && (*sweep != "" || set["smr"] || set["throughput"] || *searchFam != "") {
		return fmt.Errorf("-trace is mutually exclusive with the other modes")
	}
	if set["smr"] && *smrSlots <= 0 {
		return fmt.Errorf("-smr wants a positive slot count, got %d", *smrSlots)
	}
	if set["throughput"] && *throughput <= 0 {
		return fmt.Errorf("-throughput wants a positive entry target, got %d", *throughput)
	}
	if *sweep == "" && *smrSlots == 0 && *throughput == 0 && *searchFam == "" && !*telemetry && *traceOut == "" {
		for _, name := range []string{"n", "f", "scenario", "checkpoint", "resume", "every", "stop-after", "ckpt-every", "restart", "ckpt-dir", "ckpt-attack", "batch", "pipeline", "coded", "seeds", "descend"} {
			if set[name] {
				return fmt.Errorf("-%s requires -sweep, -smr, -throughput, -search, -telemetry, or -trace", name)
			}
		}
	}
	if *searchFam != "" {
		for _, name := range []string{"experiment", "runs", "seed", "quick", "csv", "scenario", "every", "ckpt-every", "restart", "ckpt-dir", "ckpt-attack", "batch", "pipeline", "coded"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -search", name)
			}
		}
		if *stopAfter > 0 && *checkpoint == "" {
			return fmt.Errorf("-stop-after requires -checkpoint (stopping without one loses all progress)")
		}
		return runSearch(out, searchOpts{
			family: *searchFam, seedsStr: *seedsStr, n: *sweepN, f: *sweepF,
			descend: *descend, workers: *workers, frontier: *checkpoint,
			resume: *resume, stopAfter: *stopAfter, jsonOut: *jsonOut,
		})
	}
	if *sweep != "" {
		for _, name := range []string{"experiment", "runs", "seed", "quick", "csv", "ckpt-every", "restart", "ckpt-dir", "ckpt-attack", "batch", "pipeline", "coded", "seeds", "descend"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -sweep", name)
			}
		}
		// Catch this before hours of work are discarded, not after.
		if *stopAfter > 0 && *checkpoint == "" {
			return fmt.Errorf("-stop-after requires -checkpoint (stopping without one loses all progress)")
		}
		return runSweep(out, sweepOpts{
			rangeStr: *sweep, n: *sweepN, f: *sweepF, scenario: *scenario,
			workers: *workers, checkpoint: *checkpoint, resume: *resume,
			every: *every, stopAfter: *stopAfter, jsonOut: *jsonOut,
		})
	}
	if *smrSlots > 0 {
		for _, name := range []string{"experiment", "runs", "quick", "csv", "scenario", "checkpoint", "resume", "every", "stop-after", "workers", "batch", "pipeline", "seeds", "descend"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -smr", name)
			}
		}
		return runSMRCmd(out, smrOpts{
			slots: *smrSlots, n: *sweepN, f: *sweepF, seed: *seed,
			ckptEvery: *ckptEvery, restart: *restart,
			ckptDir: *ckptDir, ckptAttack: *ckptAttack, coded: *coded,
			jsonOut: *jsonOut,
		})
	}
	if *throughput > 0 {
		for _, name := range []string{"experiment", "runs", "quick", "csv", "scenario", "checkpoint", "resume", "every", "stop-after", "restart", "ckpt-dir", "ckpt-attack", "seeds", "descend"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -throughput", name)
			}
		}
		batches, err := parseIntList("-batch", *batchList)
		if err != nil {
			return err
		}
		depths, err := parseIntList("-pipeline", *pipeList)
		if err != nil {
			return err
		}
		return runThroughputCmd(out, throughputOpts{
			entries: *throughput, n: *sweepN, f: *sweepF, seed: *seed,
			batches: batches, depths: depths, ckptEvery: *ckptEvery,
			workers: *workers, coded: *coded,
			jsonOut: *jsonOut,
		})
	}
	if *telemetry {
		for _, name := range []string{"experiment", "quick", "csv", "scenario", "checkpoint", "resume", "every", "stop-after", "ckpt-every", "restart", "ckpt-dir", "ckpt-attack", "batch", "pipeline", "coded", "seeds", "descend"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -telemetry", name)
			}
		}
		return runTelemetryCmd(out, telemetryOpts{
			n: *sweepN, f: *sweepF, seed: *seed, runs: *runs,
			workers: *workers, jsonOut: *jsonOut,
		})
	}
	if *traceOut != "" {
		for _, name := range []string{"experiment", "runs", "workers", "quick", "csv", "scenario", "checkpoint", "resume", "every", "stop-after", "ckpt-every", "restart", "ckpt-dir", "ckpt-attack", "batch", "pipeline", "coded", "seeds", "descend"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -trace", name)
			}
		}
		return runTraceCmd(out, traceOpts{
			path: *traceOut, n: *sweepN, f: *sweepF, seed: *seed,
			jsonOut: *jsonOut,
		})
	}
	opts := experiments.Options{Runs: *runs, Seed: *seed, Quick: *quick, Workers: *workers}

	var list []experiments.Experiment
	if *id != "" {
		e, err := experiments.ByID(*id)
		if err != nil {
			return err
		}
		list = []experiments.Experiment{e}
	} else {
		list = experiments.All()
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
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonTables)
	}
	return nil
}

// smrOpts carries the -smr flag bundle.
type smrOpts struct {
	slots, n, f int
	seed        int64
	ckptEvery   int
	restart     bool
	ckptDir     string
	ckptAttack  string
	coded       bool
	jsonOut     bool
}

// runSMRCmd executes one replicated-log workload (the checkpoint mode). The
// "digest" lines are the byte-stable comparison surface: CI runs the same
// workload with -ckpt-every on and off and diffs them — checkpointing must
// move memory, never what commits.
func runSMRCmd(out io.Writer, o smrOpts) error {
	f := o.f
	if f < 0 {
		f = quorum.MaxByzantine(o.n)
	}
	cfg := runner.SMRConfig{
		N: o.n, F: f,
		Slots:           o.slots,
		Commands:        8,
		CheckpointEvery: o.ckptEvery,
		Coin:            runner.CoinCommon,
		Seed:            o.seed,
		CkptDir:         o.ckptDir,
		Coded:           o.coded,
	}
	if o.restart {
		if o.ckptEvery <= 0 {
			return fmt.Errorf("-restart requires -ckpt-every (a restarted replica can only catch up via state transfer)")
		}
		cfg.Restart = &runner.SMRRestart{CrashAfter: 80 * o.n, ReviveAfter: 160 * o.n}
	}
	if o.ckptDir != "" && o.ckptEvery <= 0 {
		return fmt.Errorf("-ckpt-dir requires -ckpt-every (there is nothing to persist without checkpoints)")
	}
	if o.ckptAttack != "" {
		if o.ckptEvery <= 0 {
			return fmt.Errorf("-ckpt-attack requires -ckpt-every (the attacks target the checkpoint plane)")
		}
		attack, err := adversary.ParseCkptAttack(o.ckptAttack)
		if err != nil {
			return err
		}
		cfg.Attack = attack
		cfg.Byzantine = 1
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
	if o.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
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
		}{o.n, f, o.slots, o.seed, o.ckptEvery,
			fmt.Sprintf("%016x", res.LogDigest), fmt.Sprintf("%016x", res.StateDigest),
			res.CertifiedCut, res.LogRetained, res.RBCRecords, res.RBCDigestBytes,
			res.DealerSlots, res.Transfers, res.VictimCommitted,
			res.RestoredCuts, res.StoreErrors, res.TransferRetries,
			res.StaleResponses, res.UnverifiableResponses, res.Deliveries,
			res.Dropped, res.Spoofed,
			o.coded, res.WireBytes})
	}
	fmt.Fprintf(out, "smr workload: n=%d f=%d slots=%d seed=%d ckpt-every=%d restart=%v coded=%v\n",
		o.n, f, o.slots, o.seed, o.ckptEvery, o.restart, o.coded)
	fmt.Fprintf(out, "digest log @%d:   %016x\n", o.slots, res.LogDigest)
	fmt.Fprintf(out, "digest state @%d: %016x\n", o.slots, res.StateDigest)
	fmt.Fprintf(out, "residue: log-retained=%d rbc-records=%d rbc-bytes=%d dealer-slots=%d dealer-rounds=%d certified-cut=%d\n",
		res.LogRetained, res.RBCRecords, res.RBCDigestBytes, res.DealerSlots, res.DealerRounds, res.CertifiedCut)
	if o.restart {
		fmt.Fprintf(out, "victim: transfers=%d base=%d committed=%d frontier=%d\n",
			res.Transfers, res.VictimBase, res.VictimCommitted, res.VictimSlot)
	}
	if o.ckptDir != "" {
		fmt.Fprintf(out, "store: restored-cuts=%d store-errors=%d\n", res.RestoredCuts, res.StoreErrors)
	}
	if o.ckptAttack != "" {
		fmt.Fprintf(out, "attack %s: installs=%d retries=%d stale=%d unverifiable=%d\n",
			o.ckptAttack, res.TotalInstalls, res.TransferRetries, res.StaleResponses, res.UnverifiableResponses)
	}
	fmt.Fprintf(out, "deliveries=%d messages=%d wire-bytes=%d dropped=%d spoofed=%d\n",
		res.Deliveries, res.Messages, res.WireBytes, res.Dropped, res.Spoofed)
	return nil
}

// throughputOpts carries the -throughput flag bundle.
type throughputOpts struct {
	entries, n, f   int
	seed            int64
	batches, depths []int
	ckptEvery       int
	workers         int
	coded           bool
	jsonOut         bool
}

// parseIntList parses a comma-separated list of positive integers (the
// -batch and -pipeline grid axes).
func parseIntList(name, s string) ([]int, error) {
	parts := strings.Split(s, ",")
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("%s wants positive values, got %d", name, v)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// runThroughputCmd executes one committed-entries throughput grid. Every
// field on stdout is deterministic — a pure function of (config, seed),
// bitwise identical at any -workers value, which is exactly what CI diffs.
// The wall-clock rate is telemetry and goes to stderr, where it cannot
// contaminate the byte-stable comparison surface.
func runThroughputCmd(out io.Writer, o throughputOpts) error {
	f := o.f
	if f < 0 {
		f = quorum.MaxByzantine(o.n)
	}
	start := time.Now()
	points, err := runner.RunThroughput(runner.ThroughputConfig{
		N: o.n, F: f,
		Entries:         o.entries,
		Batches:         o.batches,
		Depths:          o.depths,
		CheckpointEvery: o.ckptEvery,
		Coin:            runner.CoinCommon,
		Coded:           o.coded,
		Seed:            o.seed,
		Workers:         o.workers,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	total := 0
	for _, p := range points {
		if p.Exhausted {
			return fmt.Errorf("throughput point batch=%d depth=%d exhausted its delivery budget", p.Batch, p.Depth)
		}
		if p.Mismatches > 0 || p.SubmitDropped > 0 || p.DuplicateCommands > 0 {
			return fmt.Errorf("throughput point batch=%d depth=%d unhealthy: mismatches=%d dropped=%d duplicates=%d",
				p.Batch, p.Depth, p.Mismatches, p.SubmitDropped, p.DuplicateCommands)
		}
		total += p.Entries
	}
	fmt.Fprintf(os.Stderr, "bench: throughput grid of %d points committed %d entries in %v wall (%.0f entries/sec; telemetry, not comparable)\n",
		len(points), total, wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	if o.jsonOut {
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
				p.Batch, p.Depth, p.Slots, p.Entries, p.Deliveries, p.Messages,
				int64(p.EndTime), p.WireBytes, fmt.Sprintf("%.3f", p.EntriesPerKDeliveries()),
				fmt.Sprintf("%016x", p.LogDigest), fmt.Sprintf("%016x", p.StateDigest),
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			N         int         `json:"n"`
			F         int         `json:"f"`
			Entries   int         `json:"entries"`
			Seed      int64       `json:"seed"`
			CkptEvery int         `json:"ckptEvery"`
			Coded     bool        `json:"coded"`
			Points    []pointJSON `json:"points"`
		}{o.n, f, o.entries, o.seed, o.ckptEvery, o.coded, rows})
	}
	fmt.Fprintf(out, "throughput: n=%d f=%d entries=%d seed=%d ckpt-every=%d coded=%v\n", o.n, f, o.entries, o.seed, o.ckptEvery, o.coded)
	fmt.Fprintf(out, "%-6s %-6s %-7s %-8s %-11s %-14s %-13s %-12s %s\n",
		"batch", "depth", "slots", "entries", "deliveries", "ent/kdeliv", "virtual-time", "wire-bytes", "log digest")
	for _, p := range points {
		fmt.Fprintf(out, "%-6d %-6d %-7d %-8d %-11d %-14.3f %-13d %-12d %016x\n",
			p.Batch, p.Depth, p.Slots, p.Entries, p.Deliveries,
			p.EntriesPerKDeliveries(), int64(p.EndTime), p.WireBytes, p.LogDigest)
	}
	return nil
}

// listScenarios prints the property-scenario battery and the
// checkpoint-adversary battery (the -ckpt-attack names).
func listScenarios(out io.Writer) error {
	for _, sc := range runner.Scenarios() {
		kind := "consensus"
		if sc.RBC {
			kind = "rbc"
		}
		fmt.Fprintf(out, "%-18s %-10s %s\n", sc.Name, kind, sc.Doc)
	}
	for _, sc := range runner.CkptScenarios() {
		fmt.Fprintf(out, "%-18s %-10s -smr -ckpt-every … -ckpt-attack %s (scenario schedule: %v)\n",
			sc.Name, "ckpt", sc.Attack, sc.Sched)
	}
	return nil
}

// sweepOpts carries the -sweep flag bundle.
type sweepOpts struct {
	rangeStr   string
	n, f       int
	scenario   string
	workers    int
	checkpoint string
	resume     bool
	every      int
	stopAfter  int64
	jsonOut    bool
}

// parseSeedRange parses "a:b" into the half-open range [a, b); name labels
// the owning flag in errors.
func parseSeedRange(name, s string) (runner.SeedRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return runner.SeedRange{}, fmt.Errorf("%s wants seedA:seedB, got %q", name, s)
	}
	from, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return runner.SeedRange{}, fmt.Errorf("%s seedA: %w", name, err)
	}
	to, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return runner.SeedRange{}, fmt.Errorf("%s seedB: %w", name, err)
	}
	r := runner.SeedRange{From: from, To: to}
	if r.Len() <= 0 {
		return runner.SeedRange{}, fmt.Errorf("%s range %v is empty", name, r)
	}
	return r, nil
}

// runSweep executes one streaming property sweep.
func runSweep(out io.Writer, o sweepOpts) error {
	seeds, err := parseSeedRange("-sweep", o.rangeStr)
	if err != nil {
		return err
	}
	sc, err := runner.ScenarioByName(o.scenario)
	if err != nil {
		return err
	}
	f := o.f
	if f < 0 {
		f = quorum.MaxByzantine(o.n)
	}

	// SIGINT stops at the next completed run, saving a checkpoint; a -stop-
	// after budget does the same after a fixed number of runs (CI smoke).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	remaining := o.stopAfter
	stop := func() bool {
		select {
		case <-sigc:
			return true
		default:
		}
		if o.stopAfter > 0 {
			remaining--
			return remaining <= 0
		}
		return false
	}

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
	spec := runner.PropertySpec{
		N: o.n, F: f, Scenario: sc, Seeds: seeds,
		Workers: o.workers, Checkpoint: o.checkpoint,
		Every: o.every, Resume: o.resume, Stop: stop,
		Progress: func(done, total int64) {
			if done%256 == 0 {
				sampleHeap()
			}
			if done%1000 == 0 {
				fmt.Fprintf(os.Stderr, "bench: sweep %s n=%d: %d/%d\n", sc.Name, o.n, done, total)
			}
		},
	}
	agg, err := runner.PropertySweep(spec)
	sampleHeap()
	heapLine := fmt.Sprintf("peak heap: %.2f MiB (runtime.ReadMemStats, sampled)", float64(peakHeap)/(1<<20))
	stopped := errors.Is(err, runner.ErrStopped)
	if err != nil && !stopped {
		return err
	}
	if stopped && o.checkpoint == "" {
		return fmt.Errorf("sweep stopped after %d runs with no -checkpoint; progress lost", agg.Runs)
	}

	switch {
	case o.jsonOut:
		if stopped {
			// Keep stdout parseable: structured stop record there, the
			// human notice on stderr.
			fmt.Fprintf(os.Stderr, "bench: sweep stopped after %d/%d runs; checkpoint saved to %s — rerun with -resume to continue\n",
				agg.Runs, seeds.Len(), o.checkpoint)
		}
		// Heap numbers vary run to run; keep them off the byte-stable JSON.
		fmt.Fprintln(os.Stderr, "bench: "+heapLine)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Scenario   string            `json:"scenario"`
			N          int               `json:"n"`
			F          int               `json:"f"`
			Seeds      runner.SeedRange  `json:"seeds"`
			Stopped    bool              `json:"stopped,omitempty"`
			Completed  int64             `json:"completed,omitempty"`
			Checkpoint string            `json:"checkpoint,omitempty"`
			Aggregate  *runner.Aggregate `json:"aggregate"`
		}{sc.Name, o.n, f, seeds, stopped, stoppedAt(stopped, agg), stoppedCk(stopped, o.checkpoint), agg}); err != nil {
			return err
		}
	case stopped:
		fmt.Fprintf(out, "sweep stopped after %d/%d runs (checks so far: %s); checkpoint saved to %s — rerun with -resume to continue\n%s\n",
			agg.Runs, seeds.Len(), agg.Checks.String(), o.checkpoint, heapLine)
	default:
		title := fmt.Sprintf("sweep %s: n=%d f=%d seeds %v", sc.Name, o.n, f, seeds)
		fmt.Fprintf(out, "%schecks: %s\n%s\n", agg.Table(title).Render(), agg.Checks.String(), heapLine)
	}
	// Violations are never waived, whether the sweep completed or was
	// interrupted mid-way.
	if !agg.Checks.Clean() {
		return fmt.Errorf("property violations detected: %s", agg.Checks.String())
	}
	return nil
}

// searchOpts carries the -search flag bundle.
type searchOpts struct {
	family    string
	seedsStr  string
	n, f      int
	descend   bool
	workers   int
	frontier  string
	resume    bool
	stopAfter int64
	jsonOut   bool
}

// runSearch executes one scheduler-parameter search (internal/search).
// Stdout — text or JSON — is a pure function of (family, n, f, seeds):
// bitwise identical at any -workers value and across kill/resume points,
// which is exactly what the CI determinism smoke diffs.
func runSearch(out io.Writer, o searchOpts) error {
	seeds, err := parseSeedRange("-seeds", o.seedsStr)
	if err != nil {
		return err
	}
	spec, err := search.FamilySpec(o.family, o.n, o.f, seeds)
	if err != nil {
		return err
	}
	f := o.f
	if f < 0 {
		f = quorum.MaxByzantine(o.n)
	}
	spec.Workers = o.workers
	spec.Frontier = o.frontier
	spec.Resume = o.resume

	// SIGINT stops at the next completed point, saving the frontier; a
	// -stop-after budget does the same after a fixed number of points.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	remaining := o.stopAfter
	spec.Stop = func() bool {
		select {
		case <-sigc:
			return true
		default:
		}
		if o.stopAfter > 0 {
			remaining--
			return remaining <= 0
		}
		return false
	}
	spec.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "bench: search %s n=%d: point %d/%d\n", o.family, o.n, done, total)
	}

	walk := search.Grid
	mode := "grid"
	if o.descend {
		walk = search.Descend
		mode = "descend"
	}
	res, err := walk(spec)
	stopped := errors.Is(err, search.ErrStopped)
	if err != nil && !stopped {
		return err
	}
	if stopped && o.frontier == "" {
		return fmt.Errorf("search stopped after %d points with no -checkpoint; progress lost", len(res.Points))
	}
	if stopped {
		fmt.Fprintf(os.Stderr, "bench: search stopped after %d points; frontier saved to %s — rerun with -resume to continue\n",
			len(res.Points), o.frontier)
	}

	if o.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Family  string               `json:"family"`
			Mode    string               `json:"mode"`
			N       int                  `json:"n"`
			F       int                  `json:"f"`
			Seeds   runner.SeedRange     `json:"seeds"`
			Stopped bool                 `json:"stopped,omitempty"`
			Points  []search.PointResult `json:"points"`
			Best    search.PointResult   `json:"best"`
		}{o.family, mode, o.n, f, seeds, stopped, res.Points, res.Best}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "search %s (%s): n=%d f=%d seeds %v — %s\n",
			o.family, mode, o.n, f, seeds, search.FamilyDoc(o.family))
		if stopped {
			fmt.Fprintf(out, "stopped after %d points; frontier saved to %s — rerun with -resume to continue\n",
				len(res.Points), o.frontier)
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

// telemetryOpts carries the -telemetry flag bundle.
type telemetryOpts struct {
	n, f, runs int
	seed       int64
	workers    int
	jsonOut    bool
}

// runTelemetryCmd executes the telemetry mode: every scheduler family of the
// E16 comparison (uniform, reorder, adaptive-cliff — same adversary, coin,
// and inputs throughout) swept over a seed block with the telemetry plane
// attached, per-run sinks merged in index order. Every byte of the output is
// deterministic — a pure function of (flags, seed), bitwise identical at any
// -workers value and any GOMAXPROCS, which is exactly what the CI telemetry
// determinism smoke diffs.
func runTelemetryCmd(out io.Writer, o telemetryOpts) error {
	if o.runs <= 0 {
		o.runs = 5
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
	var records []familyRecord
	for _, fam := range experiments.TelemetryFamilies() {
		cfgs := make([]runner.Config, o.runs)
		for i := range cfgs {
			cfgs[i] = experiments.TelemetryConfig(fam, o.n, o.seed+int64(i))
			if o.f >= 0 {
				cfgs[i].F = o.f
			}
		}
		results, err := runner.Sweep(cfgs, o.workers, runner.Run)
		if err != nil {
			return fmt.Errorf("telemetry family %s: %w", fam.Name, err)
		}
		merged := sim.NewTelemetry()
		rec := familyRecord{Family: fam.Name, N: o.n, F: cfgs[0].F, Runs: o.runs, Seed: o.seed}
		var roundSum float64
		for _, r := range results {
			if len(r.Violations) > 0 {
				return fmt.Errorf("telemetry family %s seed %d: %d property violations", fam.Name, r.Config.Seed, len(r.Violations))
			}
			merged.Merge(r.Telemetry)
			roundSum += r.MeanRounds
			rec.Messages += r.Messages
			rec.Deliveries += r.Deliveries
			rec.Dropped += r.Dropped
			rec.Spoofed += r.Spoofed
			rec.WireBytes += r.WireBytes
		}
		rec.MeanRounds = roundSum / float64(len(results))
		rec.Telemetry = merged.Report()
		records = append(records, rec)
	}
	if o.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
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

// traceOpts carries the -trace flag bundle.
type traceOpts struct {
	path    string
	n, f    int
	seed    int64
	jsonOut bool
}

// runTraceCmd executes the trace mode: one traced uniform-schedule run of the
// telemetry comparison's base configuration, its causal event stream dumped
// as JSONL (one event per line: time, kind, process, wire seq, causal parent
// seq — the format internal/obs and external tools consume), and the
// decision critical-path analysis printed to stdout. Both the file and
// stdout are deterministic: two runs of the same flags produce byte-identical
// dumps, which the CI trace smoke diffs.
func runTraceCmd(out io.Writer, o traceOpts) error {
	fams := experiments.TelemetryFamilies()
	cfg := experiments.TelemetryConfig(fams[0], o.n, o.seed) // uniform schedule
	if o.f >= 0 {
		cfg.F = o.f
	}
	cfg.Telemetry = false
	cfg.Trace = true
	res, err := runner.Run(cfg)
	if err != nil {
		return err
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("trace run: %d property violations", len(res.Violations))
	}
	f, err := os.Create(o.path)
	if err != nil {
		return err
	}
	if err := res.Recorder.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	report := obs.Analyze(res.Recorder.Events())
	if o.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	fmt.Fprintf(out, "trace: n=%d f=%d seed=%d events=%d -> %s\n",
		cfg.N, cfg.F, o.seed, len(res.Recorder.Events()), o.path)
	fmt.Fprint(out, report.String())
	return nil
}

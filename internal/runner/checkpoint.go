// Checkpointable streaming sweeps.
//
// A seed-range sweep ([SeedA, SeedB) × one configuration) streams every run
// through SweepStream into an Aggregate — Welford moments and a last-round
// histogram (internal/metrics) plus a violation tally (internal/check) — so a
// million-run sweep costs O(workers) memory, and writes periodic checkpoint
// files so a killed sweep resumes where it left off.
//
// # Checkpoint file format
//
// A checkpoint is a JSON manifest, written atomically (temp file, fsync,
// rename: ckpt.WriteFileAtomic):
//
//	{
//	  "version": 2,                 // manifest format version
//	  "kind": "consensus",          // or "rbc"
//	  "config": { ... },            // the swept runner.Config (or "rbc_config")
//	  "seeds": {"from": a, "to": b},     // the full half-open seed range
//	  "completed": {"from": a, "to": c}, // the reduced prefix, a ≤ c ≤ b
//	  "aggregate": { ... }          // full reducer state, see Aggregate
//	}
//
// The aggregate holds the run counters, one metrics.Online (count, mean, m2,
// min, max) each for messages, deliveries, rounds and sim-time, the
// metrics.Hist of each decided run's last decision round, and the violation
// tally. A version 1 manifest (percentile sketches, no histogram) is refused.
// LoadCheckpoint checks the aggregate against its run counts: the rounds
// summary and the histogram count the decided runs, the others every run,
// and the histogram's buckets are non-negative and sum to its count. It also
// refuses a key this build's structs have no field for (a removed config
// option, say) unless its value is the JSON zero value (see CheckDroppedKeys).
//
// Because runs are reduced in strict seed order, the completed work is always
// a single prefix [a, c) of the range: resuming means restoring the aggregate
// and continuing at seed c.
//
// # Determinism contract
//
// Each run is a pure function of (config, seed) and the reducer consumes
// results in seed order, so the aggregate after seed s is a pure function of
// (config, [SeedA, s]) — independent of worker count, GOMAXPROCS, goroutine
// scheduling, and of whether the sweep was interrupted and resumed zero or
// more times at arbitrary checkpoints. Every summary in the aggregate
// serializes its entire state losslessly (Go's JSON float64 encoding
// round-trips exactly), so a resumed sweep's final aggregate — and its final
// checkpoint file — is byte-identical to an uninterrupted sweep's. The
// property tests in checkpoint_test.go enforce exactly this.

package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/metrics"
)

// SeedRange is a half-open interval of run seeds [From, To).
type SeedRange struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// Len returns the number of seeds in the range.
func (r SeedRange) Len() int64 {
	if r.To < r.From {
		return 0
	}
	return r.To - r.From
}

// String implements fmt.Stringer.
func (r SeedRange) String() string { return fmt.Sprintf("[%d, %d)", r.From, r.To) }

// Aggregate is the constant-memory reduction of a sweep: counters, streaming
// summaries of the per-run measurements, and the violation tally. Its whole
// state is JSON-serializable and restores bit for bit (see the package
// comment's determinism contract). The zero value is an empty aggregate.
type Aggregate struct {
	// Runs counts reduced runs; Decided those where every correct process
	// decided; Exhausted those that ran out of delivery budget.
	Runs      int64 `json:"runs"`
	Decided   int64 `json:"decided"`
	Exhausted int64 `json:"exhausted"`
	// Messages/Deliveries/SimTime summarize per-run simulator totals;
	// Rounds summarizes the mean decision round of decided runs.
	Messages   metrics.Online `json:"messages"`
	Deliveries metrics.Online `json:"deliveries"`
	Rounds     metrics.Online `json:"rounds"`
	SimTime    metrics.Online `json:"sim_time"`
	// LastRound is the distribution of decided runs' last decision round
	// (Result.MaxRound): exactly mergeable, and read for its tail.
	LastRound metrics.Hist `json:"last_round"`
	// Checks tallies property violations across all runs.
	Checks check.Tally `json:"checks"`
}

// Observe folds one run into the aggregate. A broadcast run folds as a
// consensus run that reports no decision (see SweepSeedRange), so Decided
// and Rounds stay untouched by it.
func (a *Aggregate) Observe(seed int64, res *Result) {
	a.Runs++
	if res.AllDecided {
		a.Decided++
		a.Rounds.Add(res.MeanRounds)
		a.LastRound.Observe(int64(res.MaxRound))
	}
	if res.Exhausted {
		a.Exhausted++
	}
	a.Messages.Add(float64(res.Messages))
	a.Deliveries.Add(float64(res.Deliveries))
	a.SimTime.Add(float64(res.EndTime))
	a.Checks.Observe(seed, res.Violations)
}

// Table renders the aggregate as a metrics table, one row per measurement.
// The per-run totals show moments only ("-" for percentiles: one log2 bucket
// would span a whole sweep's message counts); the last-round row shows the
// histogram's quantiles.
func (a *Aggregate) Table(title string) *metrics.Table {
	t := metrics.NewTable(title, "metric", "value", "mean", "sd", "min", "p50", "p90", "p99", "max")
	count := func(name string, v int64) {
		t.AddRow(name, fmt.Sprint(v))
	}
	count("runs", a.Runs)
	count("decided", a.Decided)
	count("exhausted", a.Exhausted)
	count("violated runs", a.Checks.ViolatedRuns)
	count("violations", a.Checks.Violations)
	row := func(name string, s *metrics.Online) {
		t.AddRowf(name, s.Count, s.Mean, s.StdDev(), s.Min, "-", "-", "-", s.Max)
	}
	row("messages", &a.Messages)
	row("deliveries", &a.Deliveries)
	row("rounds", &a.Rounds)
	row("sim-time", &a.SimTime)
	h := &a.LastRound
	t.AddRowf("last round", h.Count, "-", "-", h.Min, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max)
	return t
}

// SweepSpec describes one checkpointable streaming sweep.
type SweepSpec struct {
	// Cfg is the consensus configuration swept; its Seed field is ignored
	// (each run uses its own seed from Seeds).
	Cfg Config `json:"config"`
	// RBC, when non-nil, sweeps reliable-broadcast runs of this
	// configuration instead of consensus runs (again, Seed is per run).
	RBC *RBCConfig `json:"rbc,omitempty"`
	// Seeds is the half-open seed range to sweep.
	Seeds SeedRange `json:"seeds"`

	// Workers sizes the pool (0 = GOMAXPROCS; results are identical for
	// every value, per the determinism contract).
	Workers int `json:"-"`
	// Checkpoint is the manifest path; empty disables checkpointing.
	Checkpoint string `json:"-"`
	// Every is the number of runs between checkpoint writes
	// (0 = DefaultCheckpointEvery).
	Every int `json:"-"`
	// Resume restores Checkpoint and continues after its completed prefix.
	// The manifest must exist and match Cfg/RBC/Seeds exactly.
	Resume bool `json:"-"`
	// Stop, when non-nil, is polled after every reduced run; returning true
	// saves a checkpoint (if checkpointing is on) and aborts the sweep with
	// ErrStopped. It is how cmd/bench turns SIGINT into a clean, resumable
	// shutdown.
	Stop func() bool `json:"-"`
	// Progress, when non-nil, is called after every reduced run with the
	// completed and total run counts.
	Progress func(done, total int64) `json:"-"`
}

// DefaultCheckpointEvery is the checkpoint cadence when SweepSpec.Every is 0.
const DefaultCheckpointEvery = 256

// checkpointVersion is the manifest format version this build writes.
const checkpointVersion = 2

// Checkpoint is the on-disk resume manifest of a sweep (see the package
// comment for the format and guarantees).
type Checkpoint struct {
	Version   int        `json:"version"`
	Kind      string     `json:"kind"`
	Config    *Config    `json:"config,omitempty"`
	RBCConfig *RBCConfig `json:"rbc_config,omitempty"`
	Seeds     SeedRange  `json:"seeds"`
	Completed SeedRange  `json:"completed"`
	Aggregate *Aggregate `json:"aggregate"`
}

// Checkpoint errors.
var (
	// ErrStopped reports that a sweep was stopped by its Stop hook; the
	// checkpoint (when enabled) holds the completed prefix.
	ErrStopped = errors.New("runner: sweep stopped before completion")
	// ErrCheckpointMismatch reports a resume against a manifest recorded for
	// different parameters.
	ErrCheckpointMismatch = errors.New("runner: checkpoint does not match sweep spec")
)

// LoadCheckpoint reads and validates a checkpoint manifest.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runner: reading checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(buf, &ck); err != nil {
		return nil, fmt.Errorf("runner: parsing checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("runner: checkpoint %s has version %d, want %d", path, ck.Version, checkpointVersion)
	}
	if err := CheckDroppedKeys(buf, &ck); err != nil {
		return nil, fmt.Errorf("runner: checkpoint %s: %w", path, err)
	}
	agg := ck.Aggregate
	if agg == nil {
		return nil, fmt.Errorf("runner: checkpoint %s has no aggregate", path)
	}
	if ck.Completed.From != ck.Seeds.From || ck.Completed.To < ck.Seeds.From || ck.Completed.To > ck.Seeds.To {
		return nil, fmt.Errorf("runner: checkpoint %s completed range %v is not a prefix of %v",
			path, ck.Completed, ck.Seeds)
	}
	if agg.Runs != ck.Completed.Len() {
		return nil, fmt.Errorf("runner: checkpoint %s aggregate holds %d runs for completed range %v",
			path, agg.Runs, ck.Completed)
	}
	if err := agg.check(); err != nil {
		return nil, fmt.Errorf("runner: checkpoint %s: %w", path, err)
	}
	return &ck, nil
}

// CheckDroppedKeys reports a key of the JSON object file that decoded, the
// value json.Unmarshal decoded from file, does not encode back, unless the
// key's value is a JSON zero value (null, false, 0, "", [], or an object of
// zero values). json.Unmarshal drops a key the struct has no field for, so a
// manifest recorded under a config option this build no longer has would
// otherwise resume as if the option were off; a zero value is what the
// option's absence means anyway. Nested objects are checked the same way.
// Both resume loaders, the sweep manifest's and search's frontier's, run it.
func CheckDroppedKeys(file []byte, decoded any) error {
	enc, err := json.Marshal(decoded)
	if err != nil {
		return err
	}
	if key := droppedKey(file, enc); key != "" {
		return fmt.Errorf("key %s is set, but this build has no such option", key)
	}
	return nil
}

// droppedKey returns the path of the first key, in sorted order, of the
// object raw whose value is not zero and that the object enc lacks, or ""
// if there is none. Keys match exactly or, as json.Unmarshal matches them,
// case-insensitively.
func droppedKey(raw, enc json.RawMessage) string {
	var got, known map[string]json.RawMessage
	if json.Unmarshal(raw, &got) != nil || json.Unmarshal(enc, &known) != nil {
		return ""
	}
	for _, key := range slices.Sorted(maps.Keys(got)) {
		match, ok := known[key]
		// order-free: struct field names differ under case folding
		for k, v := range known {
			if !ok && strings.EqualFold(k, key) {
				match, ok = v, true
			}
		}
		if !ok {
			if !jsonZero(got[key]) {
				return strconv.Quote(key)
			}
		} else if inner := droppedKey(got[key], match); inner != "" {
			return strconv.Quote(key) + "." + inner
		}
	}
	return ""
}

// jsonZero reports whether raw is a JSON zero value.
func jsonZero(raw json.RawMessage) bool {
	var v any
	return json.Unmarshal(raw, &v) == nil && zero(v)
}

func zero(v any) bool {
	switch v := v.(type) {
	case []any:
		return len(v) == 0
	case map[string]any:
		// order-free: all must be zero
		for _, e := range v {
			if !zero(e) {
				return false
			}
		}
		return true
	}
	return v == nil || v == false || v == 0.0 || v == ""
}

// check holds a decoded aggregate's summaries to its run counts: the rounds
// summary and the last-round histogram count the decided runs, the other
// summaries every run.
func (a *Aggregate) check() error {
	if a.Decided > a.Runs || a.Messages.Count != a.Runs || a.Deliveries.Count != a.Runs ||
		a.SimTime.Count != a.Runs || a.Rounds.Count != a.Decided || a.LastRound.Count != a.Decided {
		return fmt.Errorf("aggregate summaries disagree with its %d runs, %d decided", a.Runs, a.Decided)
	}
	return a.LastRound.Check()
}

// Save writes the manifest atomically (temp file, fsync, rename), so a crash
// or power loss mid-write never corrupts an existing checkpoint.
func (c *Checkpoint) Save(path string) error {
	buf, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encoding checkpoint: %w", err)
	}
	if err := ckpt.WriteFileAtomic(path, append(buf, '\n')); err != nil {
		return fmt.Errorf("runner: writing checkpoint: %w", err)
	}
	return nil
}

// matches reports whether the manifest was recorded for spec.
func (c *Checkpoint) matches(spec *SweepSpec) error {
	want := checkpointFor(spec, nil, 0)
	if c.Kind != want.Kind {
		return fmt.Errorf("%w: kind %q vs %q", ErrCheckpointMismatch, c.Kind, want.Kind)
	}
	if c.Seeds != spec.Seeds {
		return fmt.Errorf("%w: seeds %v vs %v", ErrCheckpointMismatch, c.Seeds, spec.Seeds)
	}
	wantCfg, _ := json.Marshal([]any{want.Config, want.RBCConfig})
	gotCfg, _ := json.Marshal([]any{c.Config, c.RBCConfig})
	if !bytes.Equal(wantCfg, gotCfg) {
		return fmt.Errorf("%w: config changed", ErrCheckpointMismatch)
	}
	return nil
}

// checkpointFor snapshots the sweep's state after `done` reduced runs; the
// manifest's kind names the run type and selects which config it records.
func checkpointFor(spec *SweepSpec, agg *Aggregate, done int64) *Checkpoint {
	ck := &Checkpoint{
		Version:   checkpointVersion,
		Kind:      "consensus",
		Seeds:     spec.Seeds,
		Completed: SeedRange{From: spec.Seeds.From, To: spec.Seeds.From + done},
		Aggregate: agg,
	}
	if spec.RBC != nil {
		rbcCfg := *spec.RBC
		ck.Kind, ck.RBCConfig = "rbc", &rbcCfg
	} else {
		cfg := spec.Cfg
		ck.Config = &cfg
	}
	return ck
}

// SweepSeedRange executes a checkpointable streaming sweep and returns its
// aggregate. On ErrStopped the returned aggregate holds the completed prefix
// (also saved to the checkpoint when one is configured).
func SweepSeedRange(spec SweepSpec) (*Aggregate, error) {
	total := spec.Seeds.Len()
	every := spec.Every
	if every <= 0 {
		every = DefaultCheckpointEvery
	}

	// Seed fields inside the swept config are per run; zero them before the
	// resume match so a caller-supplied Seed can never cause a spurious
	// checkpoint mismatch (manifests always record the zeroed form).
	// Each worker runs its consensus seeds on one re-armed cluster, as
	// SweepSeeds does.
	spec.Cfg.Seed = 0
	worker := func() func(seed int64) (*Result, error) { return rearming(spec.Cfg) }
	if spec.RBC != nil {
		rbcCfg := *spec.RBC
		rbcCfg.Seed = 0
		spec.RBC = &rbcCfg
		run := func(seed int64) (*Result, error) {
			cfg := rbcCfg
			cfg.Seed = seed
			res, err := RunRBC(cfg)
			if err != nil {
				return nil, err
			}
			// Decided and Rounds do not apply to a broadcast: it reduces as
			// a run that reports no decision.
			return &Result{SimStats: res.SimStats, Violations: res.Violations}, nil
		}
		worker = func() func(seed int64) (*Result, error) { return run }
	}

	agg := new(Aggregate)
	var start int64
	if spec.Resume {
		if spec.Checkpoint == "" {
			return nil, errors.New("runner: resume requires a checkpoint path")
		}
		ck, err := LoadCheckpoint(spec.Checkpoint)
		if err != nil {
			return nil, err
		}
		if err := ck.matches(&spec); err != nil {
			return nil, err
		}
		agg = ck.Aggregate
		start = ck.Completed.Len()
	}

	done := start
	save := func() error {
		if spec.Checkpoint == "" {
			return nil
		}
		return checkpointFor(&spec, agg, done).Save(spec.Checkpoint)
	}
	after := func() error {
		done++
		if spec.Progress != nil {
			spec.Progress(done, total)
		}
		if done%int64(every) == 0 && done < total {
			if err := save(); err != nil {
				return err
			}
		}
		// A stop request landing on the final run is just completion.
		if spec.Stop != nil && done < total && spec.Stop() {
			if err := save(); err != nil {
				return err
			}
			return ErrStopped
		}
		return nil
	}

	first := spec.Seeds.From + start
	err := sweepWorkers(int(total-start), spec.Workers, func() func(int) (*Result, error) {
		run := worker()
		return func(i int) (*Result, error) { return run(first + int64(i)) }
	}, func(i int, res *Result) error {
		agg.Observe(first+int64(i), res)
		return after()
	})
	if err != nil {
		if errors.Is(err, ErrStopped) {
			return agg, err
		}
		return nil, err
	}
	if err := save(); err != nil {
		return nil, err
	}
	return agg, nil
}

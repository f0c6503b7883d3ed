// Package search hunts liveness cliffs in the scheduler-parameter space.
//
// The protocol's liveness argument is probabilistic over schedules, so its
// hardest inputs are specific parameter settings of the adversarial
// schedules — reorder spans, loss rates, relay lags — that hand-written
// scenarios never hit. This package walks runner.SchedParams space
// exhaustively (Grid), scores every point by rounds-to-decide and
// budget-exhaustion rate across a fixed seed block, and reports the worst
// points found. A cliff, once found, is pinned back into
// runner.Scenarios() as a named regression scenario.
//
// # Determinism contract
//
// A point's score is the deterministic reduction (runner.Aggregate) of pure
// (config, seed) runs folded in seed order, and points are evaluated and
// ranked in a fixed order — so a search's full output is a pure function of
// (Spec.Base, Spec.Axes, Spec.Seeds): bitwise independent of worker count,
// GOMAXPROCS, and of interruption/resume at any frontier write. Parallelism
// lives entirely inside each point's sweep, which carries the same contract
// (see internal/runner/checkpoint.go).
//
// # Frontier file
//
// With Spec.Frontier set, every evaluated point is recorded in a JSON
// manifest (written atomically: temp file, fsync, rename):
//
//	{
//	  "version": 1,
//	  "config": { ... },            // the base runner.Config, seed zeroed
//	  "axes": [{"name": ..., "values": [...]}, ...],
//	  "seeds": {"from": a, "to": b},
//	  "points": {"<key>": {point result}, ...}
//	}
//
// Resume loads the manifest (which must match Base/Axes/Seeds exactly, and
// which may carry a key today's structs lack, such as a removed
// runner.Config option, only with a zero value; see runner.CheckDroppedKeys) and reuses every recorded point instead of re-running it; since evaluation is
// pure, a resumed search's output is byte-identical to an uninterrupted one.
// Because a reused point is never re-run, each one must be a point the spec
// could have produced (its own key on the axes, its parameters, possible
// counts for the seed block, the score those counts give), or the resume
// fails with ErrBadFrontier.
package search

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/runner"
)

// ExhaustPenaltyRounds is the rounds-to-decide equivalent charged to a run
// that failed to decide within its delivery budget. It dominates any real
// round count, so exhaustion-heavy points always outrank slow-but-live ones.
const ExhaustPenaltyRounds = 1024

// Axis is one searched coordinate of runner.SchedParams: a parameter name
// (see Apply for the vocabulary) and the ordered lattice of values it may
// take. Values must be non-zero — zero means "historical default" to
// SchedParams and would alias another point.
type Axis struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

// Spec configures one search.
type Spec struct {
	// Base is the configuration every point shares; each point overrides
	// Base.Sched along the axes. Base.Seed is ignored (seeds come from
	// Seeds); Base.MaxDeliveries should be a budget tight enough that a
	// genuinely stuck schedule exhausts it (runner.DeliveryBudget scaled a
	// few times, not the simulator default).
	Base runner.Config
	// Axes are the searched coordinates, in significance order: Grid
	// iterates the last axis fastest.
	Axes []Axis
	// Seeds is the half-open seed block every point is scored over.
	Seeds runner.SeedRange

	// Workers sizes each point's sweep pool (0 = GOMAXPROCS; scores are
	// identical for every value).
	Workers int
	// Frontier is the resumable manifest path; empty disables it.
	Frontier string
	// Resume loads Frontier and reuses its recorded points.
	Resume bool
	// Stop, when non-nil, is polled between points; returning true saves
	// the frontier and aborts with ErrStopped.
	Stop func() bool
	// Progress, when non-nil, is called after every evaluated or reused
	// point with the count so far and the grid size.
	Progress func(done, total int)
}

// PointResult is one evaluated parameter point.
type PointResult struct {
	// Key canonically names the point: "axis=value,..." in axis order.
	Key string `json:"key"`
	// Params is the full SchedParams the point ran under.
	Params runner.SchedParams `json:"params"`
	// Runs/Decided/Exhausted/Violations count the seed block's outcomes.
	Runs       int64 `json:"runs"`
	Decided    int64 `json:"decided"`
	Exhausted  int64 `json:"exhausted"`
	Violations int64 `json:"violations"`
	// MeanRounds is the mean decision round over decided runs; MeanTime
	// the mean simulated end time over all runs.
	MeanRounds float64 `json:"meanRounds"`
	MeanTime   float64 `json:"meanTime"`
	// Score is the liveness cost the search maximizes: mean over the seed
	// block of (rounds-to-decide, or ExhaustPenaltyRounds for a run that
	// never decided). Higher = worse liveness.
	Score float64 `json:"score"`
}

// Outcome is a completed search: every evaluated point, worst first.
type Outcome struct {
	// Points holds all evaluated points sorted by score descending, key
	// ascending — the liveness-cliff table.
	Points []PointResult `json:"points"`
	// Best is Points[0] (the worst point for the protocol).
	Best PointResult `json:"best"`
	// Evaluated counts points actually run this invocation (reused
	// frontier points are not included). Excluded from the JSON output so
	// a resumed search emits bytes identical to an uninterrupted one.
	Evaluated int `json:"-"`
}

// Worse orders points by liveness cost: higher Score first (rounds and
// exhaustion dominate), then higher MeanTime (among equally fast deciders,
// the schedule that stretches simulated time most is the worse one), then
// key ascending — a strict total order, so the ranking is a pure function
// of the scores.
func Worse(a, b PointResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.MeanTime != b.MeanTime {
		return a.MeanTime > b.MeanTime
	}
	return a.Key < b.Key
}

// Search errors.
var (
	// ErrStopped reports a search aborted by its Stop hook; the frontier
	// (when enabled) holds every completed point.
	ErrStopped = errors.New("search: stopped before completion")
	// ErrFrontierMismatch reports a resume against a frontier recorded for
	// different parameters.
	ErrFrontierMismatch = errors.New("search: frontier does not match spec")
	// ErrBadFrontier reports a frontier point the spec could not have
	// produced: a key that is not its own or not on the axes, parameters
	// other than the point's, impossible counts, or a score its counts do
	// not give.
	ErrBadFrontier = errors.New("search: frontier holds an inconsistent point")
	// ErrBadSpec reports an unusable spec.
	ErrBadSpec = errors.New("search: invalid spec")
)

// Apply sets the named parameter on p. The vocabulary is exactly the
// searchable fields of runner.SchedParams, declared beside them.
func Apply(p *runner.SchedParams, name string, v int64) error {
	if err := p.Set(name, v); err != nil {
		return fmt.Errorf("%w: unknown axis %q", ErrBadSpec, name)
	}
	return nil
}

// point is one lattice position: the value index chosen on each axis.
type point []int

// key renders the canonical point name.
func (s *Spec) key(pt point) string {
	var b strings.Builder
	for i, ax := range s.Axes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", ax.Name, ax.Values[pt[i]])
	}
	return b.String()
}

// parseKey parses a key rendered by key, reporting false for any string that
// is not the key of a lattice point.
func (s *Spec) parseKey(k string) (point, bool) {
	fields := strings.Split(k, ",")
	if len(fields) != len(s.Axes) {
		return nil, false
	}
	pt := make(point, len(s.Axes))
	for i, ax := range s.Axes {
		v, err := strconv.ParseInt(strings.TrimPrefix(fields[i], ax.Name+"="), 10, 64)
		if pt[i] = slices.Index(ax.Values, v); err != nil || pt[i] < 0 {
			return nil, false
		}
	}
	return pt, s.key(pt) == k
}

// params materializes the lattice position over the base parameters.
func (s *Spec) params(pt point) (runner.SchedParams, error) {
	p := s.Base.Sched
	for i, ax := range s.Axes {
		if err := Apply(&p, ax.Name, ax.Values[pt[i]]); err != nil {
			return runner.SchedParams{}, err
		}
	}
	return p, nil
}

// validate rejects unusable specs up front.
func (s *Spec) validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("%w: no axes", ErrBadSpec)
	}
	for _, ax := range s.Axes {
		if len(ax.Values) == 0 {
			return fmt.Errorf("%w: axis %q has no values", ErrBadSpec, ax.Name)
		}
		var probe runner.SchedParams
		for _, v := range ax.Values {
			if v == 0 {
				return fmt.Errorf("%w: axis %q includes 0 (zero means the historical default and would alias a distinct point)", ErrBadSpec, ax.Name)
			}
			if err := Apply(&probe, ax.Name, v); err != nil {
				return err
			}
		}
	}
	if s.Seeds.Len() == 0 {
		return fmt.Errorf("%w: empty seed range %v", ErrBadSpec, s.Seeds)
	}
	if s.Resume && s.Frontier == "" {
		return fmt.Errorf("%w: resume requires a frontier path", ErrBadSpec)
	}
	return nil
}

// searcher carries one search's state: the frontier cache and Grid's
// bookkeeping.
type searcher struct {
	spec   *Spec
	points map[string]PointResult // every known point, by key
	fresh  int                    // points evaluated this invocation
	done   int                    // points visited (evaluated or reused)
	total  int                    // grid size
}

func newSearcher(spec *Spec) (*searcher, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	// Seed is per run; zero it so the frontier match (and the sweeps) see
	// the canonical form.
	spec.Base.Seed = 0
	s := &searcher{spec: spec, points: make(map[string]PointResult)}
	if spec.Resume {
		f, err := loadFrontier(spec.Frontier)
		if err != nil {
			return nil, err
		}
		if err := f.matches(spec); err != nil {
			return nil, err
		}
		// Checked in key order, so the error names the same point every time.
		for _, k := range slices.Sorted(maps.Keys(f.Points)) {
			if err := spec.check(k, f.Points[k]); err != nil {
				return nil, fmt.Errorf("search: frontier %s: %w", spec.Frontier, err)
			}
			s.points[k] = f.Points[k]
		}
	}
	return s, nil
}

// check rejects a loaded frontier point this spec could not have produced,
// so a resumed search never ranks a point it did not score.
func (s *Spec) check(k string, p PointResult) error {
	pt, onAxes := s.parseKey(k)
	switch {
	case p.Key != k:
		return fmt.Errorf("%w: point %q stored under %q", ErrBadFrontier, p.Key, k)
	case !onAxes:
		return fmt.Errorf("%w: %q is not a point of the axes", ErrBadFrontier, k)
	case p.Runs != s.Seeds.Len() || p.Decided < 0 || p.Decided > p.Runs ||
		p.Exhausted < 0 || p.Exhausted > p.Runs || p.Violations < 0:
		return fmt.Errorf("%w: point %s counts %d runs of %d seeds, %d decided, %d exhausted, %d violations",
			ErrBadFrontier, k, p.Runs, s.Seeds.Len(), p.Decided, p.Exhausted, p.Violations)
	}
	if params, err := s.params(pt); err != nil || params != p.Params {
		return fmt.Errorf("%w: point %s has parameters %+v, not its own", ErrBadFrontier, k, p.Params)
	}
	if want := score(p.Runs, p.Decided, p.MeanRounds); p.Score != want {
		return fmt.Errorf("%w: point %s scores %v, its counts give %v", ErrBadFrontier, k, p.Score, want)
	}
	return nil
}

// visit returns the point's result, evaluating it if the frontier does not
// already hold it.
func (s *searcher) visit(pt point) (PointResult, error) {
	k := s.spec.key(pt)
	res, ok := s.points[k]
	if !ok {
		var err error
		res, err = s.evaluate(k, pt)
		if err != nil {
			return PointResult{}, err
		}
		s.points[k] = res
		s.fresh++
		if err := s.save(); err != nil {
			return PointResult{}, err
		}
	}
	s.done++
	if s.spec.Progress != nil {
		s.spec.Progress(s.done, s.total)
	}
	if s.spec.Stop != nil && s.spec.Stop() {
		return PointResult{}, ErrStopped
	}
	return res, nil
}

// evaluate scores one parameter point over the seed block.
func (s *searcher) evaluate(key string, pt point) (PointResult, error) {
	params, err := s.spec.params(pt)
	if err != nil {
		return PointResult{}, err
	}
	cfg := s.spec.Base
	cfg.Sched = params
	agg, err := runner.SweepSeedRange(runner.SweepSpec{
		Cfg:     cfg,
		Seeds:   s.spec.Seeds,
		Workers: s.spec.Workers,
	})
	if err != nil {
		return PointResult{}, fmt.Errorf("search: point %s: %w", key, err)
	}
	return scorePoint(key, params, agg), nil
}

// scorePoint reduces a point's sweep aggregate to its liveness cost.
func scorePoint(key string, params runner.SchedParams, agg *runner.Aggregate) PointResult {
	return PointResult{
		Key:        key,
		Params:     params,
		Runs:       agg.Runs,
		Decided:    agg.Decided,
		Exhausted:  agg.Exhausted,
		Violations: agg.Checks.Violations,
		MeanRounds: agg.Rounds.Mean,
		MeanTime:   agg.SimTime.Mean,
		Score:      score(agg.Runs, agg.Decided, agg.Rounds.Mean),
	}
}

// score is a seed block's liveness cost, averaged over its runs: decided
// runs cost their mean decision round, meanRounds, and undecided runs the
// flat penalty. Rounds only aggregates decided runs, so meanRounds×decided
// is exactly the decided side of the numerator.
func score(runs, decided int64, meanRounds float64) float64 {
	if runs <= 0 {
		return 0
	}
	sum := meanRounds*float64(decided) + ExhaustPenaltyRounds*float64(runs-decided)
	return sum / float64(runs)
}

// save writes the frontier when one is configured.
func (s *searcher) save() error {
	if s.spec.Frontier == "" {
		return nil
	}
	return frontierFor(s.spec, s.points).save(s.spec.Frontier)
}

// outcome ranks every known point, worst first.
func (s *searcher) outcome() *Outcome {
	out := &Outcome{Evaluated: s.fresh}
	// order-free: Worse is a strict total order, so the sort below fixes it
	for _, p := range s.points {
		out.Points = append(out.Points, p)
	}
	sort.Slice(out.Points, func(i, j int) bool {
		return Worse(out.Points[i], out.Points[j])
	})
	if len(out.Points) > 0 {
		out.Best = out.Points[0]
	}
	return out
}

// frontierVersion is the manifest format version this build writes.
const frontierVersion = 1

// frontier is the on-disk resume manifest of a search.
type frontier struct {
	Version int                    `json:"version"`
	Config  runner.Config          `json:"config"`
	Axes    []Axis                 `json:"axes"`
	Seeds   runner.SeedRange       `json:"seeds"`
	Points  map[string]PointResult `json:"points"`
}

func frontierFor(spec *Spec, points map[string]PointResult) *frontier {
	return &frontier{
		Version: frontierVersion,
		Config:  spec.Base,
		Axes:    spec.Axes,
		Seeds:   spec.Seeds,
		Points:  points,
	}
}

func loadFrontier(path string) (*frontier, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("search: reading frontier: %w", err)
	}
	var f frontier
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("search: parsing frontier %s: %w", path, err)
	}
	if f.Version != frontierVersion {
		return nil, fmt.Errorf("search: frontier %s has version %d, want %d", path, f.Version, frontierVersion)
	}
	if err := runner.CheckDroppedKeys(buf, &f); err != nil {
		return nil, fmt.Errorf("search: frontier %s: %w", path, err)
	}
	if f.Points == nil {
		f.Points = make(map[string]PointResult)
	}
	return &f, nil
}

// matches reports whether the manifest was recorded for spec.
func (f *frontier) matches(spec *Spec) error {
	want, _ := json.Marshal(frontierFor(spec, nil))
	got, _ := json.Marshal(frontierFor(&Spec{Base: f.Config, Axes: f.Axes, Seeds: f.Seeds}, nil))
	if string(want) != string(got) {
		return fmt.Errorf("%w: base config, axes, or seed range changed", ErrFrontierMismatch)
	}
	return nil
}

// save writes the manifest atomically (temp file, fsync, rename).
func (f *frontier) save(path string) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("search: encoding frontier: %w", err)
	}
	if err := ckpt.WriteFileAtomic(path, append(buf, '\n')); err != nil {
		return fmt.Errorf("search: writing frontier: %w", err)
	}
	return nil
}

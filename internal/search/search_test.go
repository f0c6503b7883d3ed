package search

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
)

// testSpec is a small, fast lattice: 2 axes over the lossy family at n=5.
func testSpec(t testing.TB) Spec {
	t.Helper()
	spec, err := FamilySpec("lossy", 5, -1, runner.SeedRange{From: 1, To: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec.Axes = []Axis{
		{Name: "loss-pct", Values: []int64{10, 30, 60}},
		{Name: "retransmit-lag", Values: []int64{20, 40, 80}},
	}
	return spec
}

// TestGridDeterministicAcrossWorkers pins the contract the whole package
// exists to provide: identical output (byte for byte, via JSON) regardless
// of worker count.
func TestGridDeterministicAcrossWorkers(t *testing.T) {
	var outs [][]byte
	for _, workers := range []int{1, 4} {
		spec := testSpec(t)
		spec.Workers = workers
		out, err := Grid(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		buf, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf)
	}
	if string(outs[0]) != string(outs[1]) {
		t.Errorf("grid output differs across worker counts:\n1: %s\n4: %s", outs[0], outs[1])
	}
}

// TestGridStopResumeIdentity kills the search after every possible prefix
// and resumes from the frontier: the final outcome must be byte-identical
// to an uninterrupted run's, with only the remaining points re-evaluated.
func TestGridStopResumeIdentity(t *testing.T) {
	base, err := json.Marshal(mustGrid(t, testSpec(t)))
	if err != nil {
		t.Fatal(err)
	}
	for stopAfter := 1; stopAfter <= 8; stopAfter++ {
		dir := t.TempDir()
		frontier := filepath.Join(dir, "frontier.json")

		spec := testSpec(t)
		spec.Frontier = frontier
		visited := 0
		spec.Stop = func() bool { visited++; return visited >= stopAfter }
		if _, err := Grid(spec); !errors.Is(err, ErrStopped) {
			t.Fatalf("stopAfter=%d: err = %v, want ErrStopped", stopAfter, err)
		}

		spec = testSpec(t)
		spec.Frontier = frontier
		spec.Resume = true
		out, err := Grid(spec)
		if err != nil {
			t.Fatalf("resume after %d: %v", stopAfter, err)
		}
		if want := 9 - stopAfter; out.Evaluated != want {
			t.Errorf("resume after %d: evaluated %d points, want %d", stopAfter, out.Evaluated, want)
		}
		buf, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(base) {
			t.Errorf("resume after %d: outcome differs from uninterrupted run:\ngot  %s\nwant %s", stopAfter, buf, base)
		}
	}
}

// TestFrontierMismatch pins that a frontier recorded for different
// parameters is rejected rather than silently reused.
func TestFrontierMismatch(t *testing.T) {
	dir := t.TempDir()
	frontier := filepath.Join(dir, "frontier.json")
	spec := testSpec(t)
	spec.Frontier = frontier
	mustGrid(t, spec)

	for name, mutate := range map[string]func(*Spec){
		"seeds":  func(s *Spec) { s.Seeds.To++ },
		"axes":   func(s *Spec) { s.Axes[0].Values = []int64{10, 61} },
		"config": func(s *Spec) { s.Base.N = 6 },
	} {
		spec := testSpec(t)
		spec.Frontier = frontier
		spec.Resume = true
		mutate(&spec)
		if _, err := Grid(spec); !errors.Is(err, ErrFrontierMismatch) {
			t.Errorf("%s changed: err = %v, want ErrFrontierMismatch", name, err)
		}
	}
}

// TestOutcomeRanking pins the ranking order: score descending, key
// ascending, Best = Points[0].
func TestOutcomeRanking(t *testing.T) {
	out := mustGrid(t, testSpec(t))
	if len(out.Points) != 9 {
		t.Fatalf("got %d points, want 9", len(out.Points))
	}
	for i := 1; i < len(out.Points); i++ {
		if Worse(out.Points[i], out.Points[i-1]) {
			t.Errorf("points out of order at %d: %q before %q", i, out.Points[i-1].Key, out.Points[i].Key)
		}
	}
	if !reflect.DeepEqual(out.Best, out.Points[0]) {
		t.Errorf("Best = %+v, want Points[0] = %+v", out.Best, out.Points[0])
	}
}

// TestApplyVocabulary pins the axis-name vocabulary 1:1 against
// SchedParams' searchable fields.
func TestApplyVocabulary(t *testing.T) {
	var p runner.SchedParams
	names := []string{
		"heal-time", "rejoin-time", "reorder-span", "straggler-lag", "partition-lag",
		"loss-pct", "dup-pct", "retransmit-lag", "topo-degree", "hop-lag", "target-lag",
	}
	for i, name := range names {
		if err := Apply(&p, name, int64(i+1)); err != nil {
			t.Errorf("Apply(%q): %v", name, err)
		}
	}
	want := runner.SchedParams{
		HealTime: 1, RejoinTime: 2, ReorderSpan: 3, StragglerLag: 4, PartitionLag: 5,
		LossPct: 6, DupPct: 7, RetransmitLag: 8, TopoDegree: 9, HopLag: 10, TargetLag: 11,
	}
	if p != want {
		t.Errorf("Apply round-trip = %+v, want %+v", p, want)
	}
	if err := Apply(&p, "no-such-axis", 1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown axis: err = %v, want ErrBadSpec", err)
	}
}

// TestSpecValidation pins the up-front spec rejections.
func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*Spec){
		"no axes":     func(s *Spec) { s.Axes = nil },
		"empty axis":  func(s *Spec) { s.Axes[0].Values = nil },
		"zero value":  func(s *Spec) { s.Axes[0].Values = []int64{0, 10} },
		"bad axis":    func(s *Spec) { s.Axes[0].Name = "bogus" },
		"empty seeds": func(s *Spec) { s.Seeds = runner.SeedRange{From: 5, To: 5} },
		"bare resume": func(s *Spec) { s.Resume = true },
	}
	for name, mutate := range cases {
		spec := testSpec(t)
		mutate(&spec)
		if _, err := Grid(spec); err == nil {
			t.Errorf("%s: Grid accepted an invalid spec", name)
		}
	}
}

// TestFamilySpecs pins that every preset builds and validates.
func TestFamilySpecs(t *testing.T) {
	for _, name := range Families() {
		spec, err := FamilySpec(name, 8, -1, runner.SeedRange{From: 1, To: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.validate(); err != nil {
			t.Errorf("%s: preset does not validate: %v", name, err)
		}
		if FamilyDoc(name) == "" {
			t.Errorf("%s: missing doc line", name)
		}
	}
	if _, err := FamilySpec("no-such-family", 8, -1, runner.SeedRange{From: 1, To: 2}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown family: err = %v, want ErrBadSpec", err)
	}
}

func mustGrid(t *testing.T, spec Spec) *Outcome {
	t.Helper()
	out, err := Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// savedFrontier runs testSpec's grid with a frontier and returns the bytes
// it saved.
func savedFrontier(t testing.TB) []byte {
	t.Helper()
	spec := testSpec(t)
	spec.Frontier = filepath.Join(t.TempDir(), "frontier.json")
	if _, err := Grid(spec); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(spec.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// resumeFrom writes buf as testSpec's frontier and resumes from it.
func resumeFrom(t testing.TB, buf []byte) (*searcher, error) {
	t.Helper()
	spec := testSpec(t)
	spec.Frontier = filepath.Join(t.TempDir(), "frontier.json")
	spec.Resume = true
	if err := os.WriteFile(spec.Frontier, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return newSearcher(&spec)
}

// TestFrontierInconsistentPoint: a resumed search re-evaluates nothing it
// restores, so a frontier point the spec could not have produced is
// rejected, one table case per shape of inconsistency.
func TestFrontierInconsistentPoint(t *testing.T) {
	saved := savedFrontier(t)
	const k = "loss-pct=30,retransmit-lag=40"
	for name, mutate := range map[string]func(points map[string]PointResult){
		"key not its own": func(ps map[string]PointResult) {
			p := ps[k]
			p.Key = "loss-pct=10,retransmit-lag=40"
			ps[k] = p
		},
		"key off the axes": func(ps map[string]PointResult) {
			p := ps[k]
			p.Key = "loss-pct=31,retransmit-lag=40"
			ps[p.Key] = p
		},
		"key not canonical": func(ps map[string]PointResult) {
			p := ps[k]
			p.Key = "loss-pct=030,retransmit-lag=40"
			ps[p.Key] = p
		},
		"params not the point's": func(ps map[string]PointResult) {
			p := ps[k]
			p.Params.LossPct = 31
			ps[k] = p
		},
		"negative count": func(ps map[string]PointResult) {
			p := ps[k]
			p.Violations = -1
			ps[k] = p
		},
		"decided above runs": func(ps map[string]PointResult) {
			p := ps[k]
			p.Decided = p.Runs + 1
			ps[k] = p
		},
		"exhausted above runs": func(ps map[string]PointResult) {
			p := ps[k]
			p.Exhausted = p.Runs + 1
			ps[k] = p
		},
		"runs not the seed block": func(ps map[string]PointResult) {
			p := ps[k]
			p.Runs++
			ps[k] = p
		},
		"score not its counts": func(ps map[string]PointResult) {
			p := ps[k]
			p.Score++
			ps[k] = p
		},
	} {
		var f frontier
		if err := json.Unmarshal(saved, &f); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.Points[k]; !ok {
			t.Fatalf("saved frontier lacks %s", k)
		}
		mutate(f.Points)
		buf, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resumeFrom(t, buf); !errors.Is(err, ErrBadFrontier) {
			t.Errorf("%s: err = %v, want ErrBadFrontier", name, err)
		}
	}
	if _, err := resumeFrom(t, saved); err != nil {
		t.Errorf("unmodified frontier: %v", err)
	}
}

// withCodedKey returns frontier with the removed Config key Coded set to v
// in its config object.
func withCodedKey(t testing.TB, frontier []byte, v string) []byte {
	t.Helper()
	after := []byte(`"DisableDecideGadget": false`)
	edited := bytes.Replace(frontier, after, append(after, ",\n    \"Coded\": "+v...), 1)
	if bytes.Equal(edited, frontier) {
		t.Fatal("frontier has no DisableDecideGadget key to extend")
	}
	return edited
}

// TestFrontierRefusesDroppedOption: a frontier recorded with the removed
// Config option Coded on is refused, so its points are not reused as if the
// option were off; with the option off it resumes.
func TestFrontierRefusesDroppedOption(t *testing.T) {
	saved := savedFrontier(t)
	if _, err := resumeFrom(t, withCodedKey(t, saved, "true")); err == nil {
		t.Error(`frontier with "Coded": true resumed`)
	}
	if _, err := resumeFrom(t, withCodedKey(t, saved, "false")); err != nil {
		t.Errorf(`frontier with "Coded": false: %v`, err)
	}
}

// FuzzLoadFrontier feeds arbitrary bytes to a resume of testSpec's search,
// seeded with a frontier a real grid run saved and the same frontier with
// the removed Config key Coded, off and on. A resume must never panic, and
// every point it accepts must be one the spec could have produced.
func FuzzLoadFrontier(f *testing.F) {
	saved := savedFrontier(f)
	f.Add(saved)
	f.Add(withCodedKey(f, saved, "false"))
	f.Add(withCodedKey(f, saved, "true"))
	spec := testSpec(f)
	lattice := map[string]runner.SchedParams{}
	for _, loss := range spec.Axes[0].Values {
		for _, lag := range spec.Axes[1].Values {
			p := spec.Base.Sched
			p.LossPct, p.RetransmitLag = int(loss), sim.Time(lag)
			lattice[fmt.Sprintf("loss-pct=%d,retransmit-lag=%d", loss, lag)] = p
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := resumeFrom(t, buf)
		if err != nil {
			return
		}
		// order-free: each point is checked on its own.
		for k, p := range s.points {
			params, onLattice := lattice[k]
			switch {
			case p.Key != k || !onLattice:
				t.Fatalf("accepted point %q under key %q", p.Key, k)
			case p.Params != params:
				t.Fatalf("accepted point %s with parameters %+v, want %+v", k, p.Params, params)
			case p.Runs != spec.Seeds.Len() || p.Decided < 0 || p.Decided > p.Runs ||
				p.Exhausted < 0 || p.Exhausted > p.Runs || p.Violations < 0:
				t.Fatalf("accepted point %s with impossible counts %+v", k, p)
			}
			want := (p.MeanRounds*float64(p.Decided) + ExhaustPenaltyRounds*float64(p.Runs-p.Decided)) / float64(p.Runs)
			if p.Score != want {
				t.Fatalf("accepted point %s scoring %v, its counts give %v", k, p.Score, want)
			}
		}
	})
}

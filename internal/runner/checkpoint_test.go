package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// ckConfig is the small, fast, adversarial configuration the checkpoint
// tests sweep.
func ckConfig() Config {
	return Config{
		N: 7, F: 2, Byzantine: -1,
		Protocol: ProtocolBracha, Coin: CoinCommon,
		Adversary: AdvEquivocator, Scheduler: SchedRushByz,
		Inputs: InputSplit,
	}
}

// aggJSON renders an aggregate for byte comparison.
func aggJSON(t *testing.T, agg *Aggregate) string {
	t.Helper()
	buf, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestSweepSeedRangeMatchesSerialFold: the streamed, checkpointed aggregate
// must equal folding serial Run results into a fresh aggregate by hand.
func TestSweepSeedRangeMatchesSerialFold(t *testing.T) {
	seeds := SeedRange{From: 5, To: 45}
	want := new(Aggregate)
	for s := seeds.From; s < seeds.To; s++ {
		cfg := ckConfig()
		cfg.Seed = s
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Observe(s, res)
	}
	got, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, got) != aggJSON(t, want) {
		t.Errorf("streamed aggregate differs from serial fold:\n got %s\nwant %s",
			aggJSON(t, got), aggJSON(t, want))
	}
}

// TestSweepSeedRangeWorkerIndependence: the aggregate is byte-identical for
// every worker count.
func TestSweepSeedRangeWorkerIndependence(t *testing.T) {
	seeds := SeedRange{From: 1, To: 33}
	base, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		got, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if aggJSON(t, got) != aggJSON(t, base) {
			t.Errorf("workers=%d: aggregate differs from workers=1", workers)
		}
	}
}

// TestAggregateTable: the per-run totals print their moments with "-" for
// percentiles, and the last-round row prints the histogram's quantiles over
// decided runs only.
func TestAggregateTable(t *testing.T) {
	var a Aggregate
	for i, r := range []*Result{
		{AllDecided: true, MeanRounds: 1, MaxRound: 1},
		{AllDecided: true, MeanRounds: 2.5, MaxRound: 3},
		{AllDecided: true, MeanRounds: 4, MaxRound: 6},
		{Exhausted: true},
	} {
		r.Messages = 100 * (i + 1)
		a.Observe(int64(i), r)
	}
	got := map[string]string{}
	for _, row := range a.Table("t").Rows() {
		got[row[0]] = strings.Join(row, ",")
	}
	for _, want := range []string{
		"messages,4,250.00,111.80,100.00,-,-,-,400.00",
		"rounds,3,2.50,1.22,1.00,-,-,-,4.00",
		"last round,3,-,-,1,3,6,6,6",
	} {
		if name, _, _ := strings.Cut(want, ","); got[name] != want {
			t.Errorf("row %q, want %q", got[name], want)
		}
	}
}

// runInterrupted sweeps the spec to completion, killing it via the Stop hook
// after pseudo-random numbers of runs and resuming from the checkpoint each
// time, and returns the final aggregate and the number of kills.
func runInterrupted(t *testing.T, spec SweepSpec, rng *rand.Rand) (*Aggregate, int) {
	t.Helper()
	kills := 0
	for attempt := 0; ; attempt++ {
		if attempt > 1000 {
			t.Fatal("sweep never completed")
		}
		remaining := 1 + rng.Intn(9)
		spec.Stop = func() bool {
			remaining--
			return remaining <= 0
		}
		agg, err := SweepSeedRange(spec)
		if errors.Is(err, ErrStopped) {
			kills++
			spec.Resume = true
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return agg, kills
	}
}

// TestCheckpointResumeBitwiseIdentical is the interruption property test: a
// sweep killed at random points and resumed from its checkpoints — any
// number of times, at any worker count — must end with an aggregate and a
// final checkpoint file byte-identical to an uninterrupted sweep's.
func TestCheckpointResumeBitwiseIdentical(t *testing.T) {
	seeds := SeedRange{From: 1, To: 49}
	dir := t.TempDir()

	// The uninterrupted reference.
	refPath := filepath.Join(dir, "ref.json")
	refAgg, err := SweepSeedRange(SweepSpec{
		Cfg: ckConfig(), Seeds: seeds, Workers: 3, Checkpoint: refPath, Every: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	refFile, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for _, workers := range []int{1, 2, 6} {
		path := filepath.Join(dir, "interrupted.json")
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		agg, kills := runInterrupted(t, SweepSpec{
			Cfg: ckConfig(), Seeds: seeds, Workers: workers, Checkpoint: path, Every: 7,
		}, rng)
		if kills == 0 {
			t.Fatalf("workers=%d: sweep was never killed; test is vacuous", workers)
		}
		if aggJSON(t, agg) != aggJSON(t, refAgg) {
			t.Errorf("workers=%d after %d kills: aggregate differs from uninterrupted sweep", workers, kills)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(file) != string(refFile) {
			t.Errorf("workers=%d after %d kills: final checkpoint file differs from uninterrupted sweep", workers, kills)
		}
	}
}

// TestCheckpointResumeRBC: the same kill/resume identity holds for
// reliable-broadcast sweeps.
func TestCheckpointResumeRBC(t *testing.T) {
	rbcCfg := RBCConfig{N: 10, F: 3, Byzantine: 3, SenderEquivocates: true}
	seeds := SeedRange{From: 1, To: 41}
	dir := t.TempDir()

	refAgg, err := SweepSeedRange(SweepSpec{RBC: &rbcCfg, Seeds: seeds, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rbc.json")
	rng := rand.New(rand.NewSource(7))
	agg, kills := runInterrupted(t, SweepSpec{
		RBC: &rbcCfg, Seeds: seeds, Workers: 4, Checkpoint: path, Every: 5,
	}, rng)
	if kills == 0 {
		t.Fatal("sweep was never killed; test is vacuous")
	}
	if aggJSON(t, agg) != aggJSON(t, refAgg) {
		t.Error("resumed RBC aggregate differs from uninterrupted sweep")
	}
}

// TestCheckpointValidation: resume rejects missing files, foreign configs,
// and foreign seed ranges.
func TestCheckpointValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	seeds := SeedRange{From: 1, To: 9}

	if _, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds, Resume: true}); err == nil {
		t.Error("resume without checkpoint path accepted")
	}
	if _, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds, Checkpoint: path, Resume: true}); err == nil {
		t.Error("resume from missing checkpoint accepted")
	}

	if _, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds, Checkpoint: path, Workers: 2}); err != nil {
		t.Fatal(err)
	}

	other := ckConfig()
	other.Adversary = AdvLiar
	if _, err := SweepSeedRange(SweepSpec{Cfg: other, Seeds: seeds, Checkpoint: path, Resume: true}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("config mismatch error = %v, want ErrCheckpointMismatch", err)
	}
	if _, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: SeedRange{From: 1, To: 99}, Checkpoint: path, Resume: true}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("seed-range mismatch error = %v, want ErrCheckpointMismatch", err)
	}
	rbcCfg := RBCConfig{N: 7, F: 2}
	if _, err := SweepSeedRange(SweepSpec{RBC: &rbcCfg, Seeds: seeds, Checkpoint: path, Resume: true}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("kind mismatch error = %v, want ErrCheckpointMismatch", err)
	}

	// Resuming a completed sweep is a no-op that returns the final state.
	agg, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds, Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != seeds.Len() {
		t.Errorf("resumed completed sweep reports %d runs, want %d", agg.Runs, seeds.Len())
	}
}

// TestCheckpointResumeIgnoresSpecSeed: the Seed field inside the swept
// config is documented as ignored, so a caller-supplied nonzero Seed must
// neither change results nor break the resume match, and must never be
// mutated in the caller's RBCConfig.
func TestCheckpointResumeIgnoresSpecSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	seeds := SeedRange{From: 1, To: 21}
	cfg := ckConfig()
	cfg.Seed = 7777
	stopped := 0
	_, err := SweepSeedRange(SweepSpec{
		Cfg: cfg, Seeds: seeds, Checkpoint: path, Every: 4,
		Stop: func() bool { stopped++; return stopped >= 9 },
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stop hook did not fire: %v", err)
	}
	agg, err := SweepSeedRange(SweepSpec{Cfg: cfg, Seeds: seeds, Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatalf("resume with nonzero spec seed rejected: %v", err)
	}
	plain, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, agg) != aggJSON(t, plain) {
		t.Error("nonzero spec seed changed sweep results")
	}

	rbcCfg := RBCConfig{N: 7, F: 2, Seed: 42}
	if _, err := SweepSeedRange(SweepSpec{RBC: &rbcCfg, Seeds: SeedRange{From: 1, To: 5}}); err != nil {
		t.Fatal(err)
	}
	if rbcCfg.Seed != 42 {
		t.Errorf("caller's RBCConfig mutated: seed = %d", rbcCfg.Seed)
	}
}

// TestCheckpointRejectsCorruptManifest: tampered or truncated manifests are
// refused instead of being resumed into nonsense.
func TestCheckpointRejectsCorruptManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	seeds := SeedRange{From: 1, To: 9}
	stops := 0
	if _, err := SweepSeedRange(SweepSpec{
		Cfg: ckConfig(), Seeds: seeds, Checkpoint: path,
		Stop: func() bool { stops++; return stops >= 4 },
	}); !errors.Is(err, ErrStopped) {
		t.Fatalf("setup sweep: %v", err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(mutate func(*Checkpoint)) error {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		mutate(ck)
		if err := ck.Save(path); err != nil {
			t.Fatal(err)
		}
		_, err = LoadCheckpoint(path)
		return err
	}
	if err := tamper(func(ck *Checkpoint) { ck.Completed.To = 999 }); err == nil {
		t.Error("completed range beyond seeds accepted")
	}
	if err := tamper(func(ck *Checkpoint) { ck.Completed = SeedRange{From: 4, To: 6} }); err == nil {
		t.Error("completed range not anchored at seeds.from accepted")
	}
	if err := tamper(func(ck *Checkpoint) { ck.Aggregate.Runs = 1 }); err == nil {
		t.Error("aggregate run count disagreeing with completed range accepted")
	}
	if err := tamper(func(ck *Checkpoint) { ck.Aggregate.Messages.Count-- }); err == nil {
		t.Error("summary whose count disagrees with the runs accepted")
	}
	if err := tamper(func(ck *Checkpoint) { ck.Aggregate.LastRound.Buckets[1]++ }); err == nil {
		t.Error("last-round buckets not summing to the count accepted")
	}
	if err := tamper(func(ck *Checkpoint) {
		h := &ck.Aggregate.LastRound
		h.Buckets[0]--
		h.Buckets[1]++
	}); err == nil {
		t.Error("negative last-round bucket accepted")
	}
}

// manifestCases are FuzzLoadCheckpoint's generated seeds, keyed by corpus
// file name: a genuine manifest of a 4-seed sweep, three hostile edits of
// it, and two that add the removed Config key Coded, false (accepted) and
// true (refused). The corpus also holds version-1, a manifest the previous
// format wrote for the same sweep (P² sketches, no last-round histogram).
func manifestCases(t testing.TB) map[string][]byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	if _, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: SeedRange{From: 1, To: 5}, Workers: 1, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	genuine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(mutate func(*metrics.Hist)) []byte {
		var ck Checkpoint
		if err := json.Unmarshal(genuine, &ck); err != nil {
			t.Fatal(err)
		}
		mutate(&ck.Aggregate.LastRound)
		buf, err := json.MarshalIndent(&ck, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(buf, '\n')
	}
	return map[string][]byte{
		"genuine-v2": genuine,
		"truncated":  genuine[:len(genuine)/2],
		"negative-bucket": edit(func(h *metrics.Hist) {
			h.Buckets[0]--
			h.Buckets[1]++
		}),
		"bucket-sum-mismatch": edit(func(h *metrics.Hist) { h.Buckets[1]++ }),
		"coded-false":         withConfigKey(t, genuine, `"Coded": false`),
		"coded-true":          withConfigKey(t, genuine, `"Coded": true`),
	}
}

// withConfigKey returns manifest with kv added to its config object, after
// the DisableDecideGadget key.
func withConfigKey(t testing.TB, manifest []byte, kv string) []byte {
	t.Helper()
	after := []byte(`"DisableDecideGadget": false`)
	edited := bytes.Replace(manifest, after, append(after, ",\n    "+kv...), 1)
	if bytes.Equal(edited, manifest) {
		t.Fatal("manifest has no DisableDecideGadget key to extend")
	}
	return edited
}

// TestCheckpointRefusesDroppedOption: a config key this build has no field
// for loads only with a JSON zero value, at the top level and inside a
// nested struct, so a manifest recorded with an option switched on cannot
// resume as if it were off.
func TestCheckpointRefusesDroppedOption(t *testing.T) {
	genuine := manifestCases(t)["genuine-v2"]
	for _, tc := range []struct {
		kv string
		ok bool
	}{
		{`"Coded": true`, false},
		{`"Coded": 3`, false},
		{`"Coded": "on"`, false},
		{`"Coded": [0]`, false},
		{`"Sched": {"oldLag": 5}`, false},
		{`"Coded": false`, true},
		{`"Coded": 0`, true},
		{`"Coded": null`, true},
		{`"Coded": ""`, true},
		{`"Coded": {}`, true},
		{`"Sched": {"oldLag": 0}`, true},
		{`"disabledecidegadget": false`, true}, // a known field, matched as json.Unmarshal does
	} {
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(path, withConfigKey(t, genuine, tc.kv), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); (err == nil) != tc.ok {
			t.Errorf("%s: LoadCheckpoint error %v, want ok=%v", tc.kv, err, tc.ok)
		}
	}
}

// TestCheckpointAcceptsDroppedCodedKey: a v2 manifest written while
// Config still had its Coded field (always false in a sweep) still loads and
// resumes, since decoding ignores the unknown key and the resume match
// re-encodes both configs from today's struct.
func TestCheckpointAcceptsDroppedCodedKey(t *testing.T) {
	genuine := manifestCases(t)["genuine-v2"]
	old := []byte(`"DisableDecideGadget": false`)
	legacy := bytes.Replace(genuine, old, append(old, ",\n    \"Coded\": false"...), 1)
	if bytes.Equal(legacy, genuine) {
		t.Fatal("manifest has no DisableDecideGadget key to extend")
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	seeds := SeedRange{From: 1, To: 5}
	agg, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds, Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	fresh, err := SweepSeedRange(SweepSpec{Cfg: ckConfig(), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, agg) != aggJSON(t, fresh) {
		t.Error("resumed aggregate differs from a fresh sweep")
	}
}

// TestCheckpointCorpusCurrent: the checked-in seed corpus holds the
// generated manifests as they are today, and LoadCheckpoint accepts only the
// genuine one and the one with a false Coded key.
func TestCheckpointCorpusCurrent(t *testing.T) {
	cases := manifestCases(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadCheckpoint")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(cases)+1 {
		t.Errorf("corpus holds %d files, want the %d generated manifests and version-1", len(files), len(cases))
	}
	for _, file := range files {
		name := file.Name()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if want, ok := cases[name]; ok {
			if enc := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", want); string(raw) != enc {
				t.Errorf("corpus file %s is stale; rewrite it as\n%s", name, enc)
			}
		} else if name != "version-1" {
			t.Errorf("unexpected corpus file %s", name)
		}
		quoted, found := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !found || err != nil {
			t.Fatalf("corpus file %s: not one []byte value", name)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); (err == nil) != (name == "genuine-v2" || name == "coded-false") {
			t.Errorf("%s: LoadCheckpoint error %v", name, err)
		}
	}
}

// FuzzLoadCheckpoint feeds hostile manifest bytes to LoadCheckpoint. It must
// never panic, and a manifest it accepts must hold its summaries to its run
// counts, render as a table, and save and reload byte-identically.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		a := ck.Aggregate
		if a.Messages.Count != a.Runs || a.Deliveries.Count != a.Runs || a.SimTime.Count != a.Runs ||
			a.Rounds.Count != a.Decided || a.LastRound.Count != a.Decided {
			t.Fatalf("accepted summaries disagree with %d runs, %d decided: %+v", a.Runs, a.Decided, a)
		}
		var sum int64
		for _, c := range a.LastRound.Buckets {
			if c < 0 {
				t.Fatalf("accepted negative bucket: %v", a.LastRound.Buckets)
			}
			sum += c
		}
		if sum != a.LastRound.Count || len(a.LastRound.Buckets) > 65 {
			t.Fatalf("accepted buckets %v for count %d", a.LastRound.Buckets, a.LastRound.Count)
		}
		a.Table("fuzz").Render()

		saved := make([][]byte, 2)
		for i := range saved {
			out := filepath.Join(dir, fmt.Sprintf("out%d.json", i))
			if err := ck.Save(out); err != nil {
				t.Fatalf("accepted manifest failed to save: %v", err)
			}
			if ck, err = LoadCheckpoint(out); err != nil {
				t.Fatalf("saved manifest refused: %v", err)
			}
			if saved[i], err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(saved[0], saved[1]) {
			t.Fatalf("save/reload not byte-identical:\n%s\n---\n%s", saved[0], saved[1])
		}
	})
}

package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// TestAllExperimentsRunQuick holds every registry row to its claim at quick
// size on seeds 1, 2 and 3 (seed 1 under -short).
func TestAllExperimentsRunQuick(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if e.Claim == "" {
				t.Fatal("no claim")
			}
			for _, seed := range seeds {
				tbl, err := e.Run(Options{Quick: true, Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(tbl.Rows()) == 0 {
					t.Fatalf("seed %d: empty table", seed)
				}
				if out := tbl.Render(); !strings.Contains(out, "==") {
					t.Errorf("seed %d: render missing title: %q", seed, out)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E7")
	if err != nil || e.ID != "E7" {
		t.Fatalf("ByID(E7) = %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestDefaults(t *testing.T) {
	o := Defaults(Options{})
	if o.Runs != 25 {
		t.Errorf("Runs = %d, want 25", o.Runs)
	}
	q := Defaults(Options{Quick: true})
	if q.Runs != 5 {
		t.Errorf("quick Runs = %d, want 5", q.Runs)
	}
	if len(q.sizes()) >= len(o.sizes()) {
		t.Error("quick sizes must be smaller")
	}
}

// runRow runs registry row id under o; an error, a refuted claim included,
// fails the test.
func runRow(t *testing.T, id string, o Options) *metrics.Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// claimRows runs one experiment at quick size and returns its data rows.
func claimRows(t *testing.T, id string) [][]string {
	t.Helper()
	rows := runRow(t, id, Options{Quick: true, Seed: 1}).Rows()
	if len(rows) == 0 {
		t.Fatal("empty table")
	}
	return rows
}

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// okRuns parses an "ok/total" cell.
func okRuns(t *testing.T, s string) (ok, total float64) {
	t.Helper()
	a, b, found := strings.Cut(s, "/")
	if !found {
		t.Fatalf("cell %q is not ok/total", s)
	}
	return cell(t, a), cell(t, b)
}

// TestE1Shape verifies the headline shape of Table 1: message counts match
// the n+2n² model exactly for correct senders.
func TestE1Shape(t *testing.T) {
	rows := runRow(t, "E1", Options{Runs: 2, Quick: true, Seed: 3}).Rows()
	if len(rows) < 2 {
		t.Fatalf("unexpected rows %v", rows)
	}
	for _, row := range rows {
		n := cell(t, row[0])
		if got, want := cell(t, row[2]), n+2*n*n; got != want {
			t.Errorf("n=%v: msgs = %v, want %v", n, got, want)
		}
		if row[5] != "0" {
			t.Errorf("n=%v: violations = %s", n, row[5])
		}
	}
}

// TestE6Shape verifies the crossover of Figure 3: Bracha completes every run
// at every f, and Ben-Or completes fewer than all runs at some f ≥ n/5.
func TestE6Shape(t *testing.T) {
	benorFell := false
	for _, row := range claimRows(t, "E6") {
		n, f := cell(t, row[0]), cell(t, row[1])
		if ok, total := okRuns(t, row[5]); ok != total {
			t.Errorf("Bracha failed a run: %v", row)
		}
		if ok, total := okRuns(t, row[3]); 5*f >= n && ok != total {
			benorFell = true
		}
	}
	if !benorFell {
		t.Error("Ben-Or completed every run at every f ≥ n/5")
	}
}

// TestE7Shape verifies tightness: the oversized-f rows must report broken
// runs, the design-point rows must not.
func TestE7Shape(t *testing.T) {
	for _, row := range runRow(t, "E7", Options{Runs: 3, Quick: true, Seed: 2}).Rows() {
		fAssumed, actual := row[1], row[2]
		broken, _ := okRuns(t, row[3])
		if fAssumed == actual && broken != 0 {
			t.Errorf("design point broke: %v", row)
		}
		if fAssumed != actual && broken == 0 {
			t.Errorf("oversized f did not break: %v", row)
		}
	}
}

// TestClaimE2 asserts Table 2's claim: with f < n/3, no adversary in the zoo
// under either scheduler breaks a property or stops a run from terminating.
func TestClaimE2(t *testing.T) {
	for _, row := range claimRows(t, "E2") {
		if ok, total := okRuns(t, row[5]); ok != total {
			t.Errorf("run did not terminate: %v", row)
		}
		if row[6] != "0" {
			t.Errorf("violations: %v", row)
		}
	}
}

// TestClaimE3E4 compares Figures 1 and 2 on the split+liar workload, which
// neither row's claim can: from n=7 on, the local coin's mean rounds lie
// above the common coin's.
func TestClaimE3E4(t *testing.T) {
	o := Defaults(Options{Quick: true, Seed: 1})
	always := func(float64, float64) bool { return true }
	_, sizes, local, err := coinRounds(o, runner.CoinLocal, "", always)
	if err != nil {
		t.Fatal(err)
	}
	_, _, common, err := coinRounds(o, runner.CoinCommon, "", always)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		if l, c := local[i].rounds.Mean, common[i].rounds.Mean; n >= 7 && l <= c {
			t.Errorf("n=%d: local-coin rounds %.2f not above common-coin rounds %.2f", n, l, c)
		}
	}
}

// TestClaimA1 asserts ablation A1: turning validation off under the liar
// adversary leaves fewer runs ok and costs more messages.
func TestClaimA1(t *testing.T) {
	rows := claimRows(t, "A1")
	on, off := rows[0], rows[1]
	if on[0] != "on" || off[0] != "off" {
		t.Fatalf("unexpected rows %v", rows)
	}
	okOn, _ := okRuns(t, on[1])
	okOff, _ := okRuns(t, off[1])
	if okOff >= okOn {
		t.Errorf("validation off has no fewer ok-runs: on %s, off %s", on[1], off[1])
	}
	if cell(t, off[3]) <= cell(t, on[3]) {
		t.Errorf("validation off sends no more messages: on %s, off %s", on[3], off[3])
	}
}

// TestClaimA2 asserts ablation A2: the gadget changes halting, not deciding —
// the same mean decision round either way, and processes halt only with it.
func TestClaimA2(t *testing.T) {
	rows := claimRows(t, "A2")
	on, off := rows[0], rows[1]
	if on[0] != "on" || off[0] != "off" {
		t.Fatalf("unexpected rows %v", rows)
	}
	if on[2] != off[2] {
		t.Errorf("decision round moved: on %s, off %s", on[2], off[2])
	}
	if cell(t, on[3]) <= 0 {
		t.Errorf("no process halted with the gadget on: %v", on)
	}
	if off[3] != "0" {
		t.Errorf("processes halted with the gadget off: %v", off)
	}
}

// TestClaimA4 asserts ablation A4: consistent broadcast is cheaper but loses
// totality under a partial-send sender; reliable broadcast keeps it.
func TestClaimA4(t *testing.T) {
	rows := claimRows(t, "A4")
	reliable, consistent := rows[0], rows[1]
	if reliable[0] != "reliable" || consistent[0] != "consistent" {
		t.Fatalf("unexpected rows %v", rows)
	}
	if cell(t, consistent[1]) >= cell(t, reliable[1]) {
		t.Errorf("consistent broadcast sends no fewer messages: %s vs %s", consistent[1], reliable[1])
	}
	if cell(t, consistent[3]) <= 0 {
		t.Errorf("consistent broadcast shows no totality violation: %v", consistent)
	}
	if reliable[3] != "0" || reliable[2] != "0" || consistent[2] != "0" {
		t.Errorf("violations outside the partial-send attack on consistent broadcast: %v", rows)
	}
}

// TestRefutationNamesClaim: a table that refutes its claim comes back with
// the table and an error naming the experiment, the claim and the row.
func TestRefutationNamesClaim(t *testing.T) {
	e := Experiment{ID: "X1", Claim: "rows agree", Run: func(Options) (*metrics.Table, error) {
		var bad refutation
		bad.check(false, "n=%d: %d/%d", 4, 3, 5)
		return metrics.NewTable("X1", "n"), bad.err()
	}}
	tbl, err := e.named()(Options{})
	if tbl == nil || err == nil {
		t.Fatalf("got table %v, error %v", tbl, err)
	}
	if want := `X1: claim "rows agree" fails: n=4: 3/5`; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// quickOpts keeps the smoke tests fast; the full sweeps run in cmd/bench
// and the benchmarks.
func quickOpts() Options {
	return Options{Runs: 3, Quick: true, Seed: 1}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows()) == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			if out := tbl.Render(); !strings.Contains(out, "==") {
				t.Errorf("%s render missing title: %q", e.ID, out)
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

// TestE1Shape verifies the headline shape of Table 1: message counts match
// the n+2n² model exactly for correct senders.
func TestE1Shape(t *testing.T) {
	tbl, err := E1RBCMessages(Options{Runs: 2, Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected table: %s", out)
	}
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		n, err := strconv.Atoi(cols[0])
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n + 2*n*n)
		got, err := strconv.ParseFloat(cols[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d: msgs = %v, want %v", n, got, want)
		}
		if cols[5] != "0" {
			t.Errorf("n=%d: violations = %s", n, cols[5])
		}
	}
}

// TestE6Shape verifies the crossover of Figure 3: Bracha completes every run
// at every f, and Ben-Or completes fewer than all runs at some f ≥ n/5.
func TestE6Shape(t *testing.T) {
	tbl, err := E6Crossover(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	benorFell := false
	for _, line := range strings.Split(strings.TrimSpace(tbl.CSV()), "\n")[1:] {
		cols := strings.Split(line, ",")
		n, _ := strconv.Atoi(cols[0])
		f, _ := strconv.Atoi(cols[1])
		benorOK, brachaOK := strings.Split(cols[3], "/"), strings.Split(cols[5], "/")
		if brachaOK[0] != brachaOK[1] {
			t.Errorf("Bracha failed a run: %s", line)
		}
		if 5*f >= n && benorOK[0] != benorOK[1] {
			benorFell = true
		}
	}
	if !benorFell {
		t.Errorf("Ben-Or completed every run at every f ≥ n/5:\n%s", tbl.CSV())
	}
}

// TestE7Shape verifies tightness: the oversized-f rows must report broken
// runs, the design-point rows must not.
func TestE7Shape(t *testing.T) {
	tbl, err := E7Tightness(Options{Runs: 3, Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tbl.CSV()), "\n")
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		fAssumed, actual, broken := cols[1], cols[2], cols[3]
		if fAssumed == actual {
			if !strings.HasPrefix(broken, "0/") {
				t.Errorf("design point broke: %s", line)
			}
		} else {
			if strings.HasPrefix(broken, "0/") {
				t.Errorf("oversized f did not break: %s", line)
			}
		}
	}
}

// claimRows runs one experiment at quick size and returns its data rows.
func claimRows(t *testing.T, run func(Options) (*metrics.Table, error)) [][]string {
	t.Helper()
	tbl, err := run(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
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

// TestClaimE2 asserts Table 2's claim: with f < n/3, no adversary in the zoo
// under either scheduler breaks a property or stops a run from terminating.
func TestClaimE2(t *testing.T) {
	for _, row := range claimRows(t, E2Resilience) {
		if ok, total := okRuns(t, row[5]); ok != total {
			t.Errorf("run did not terminate: %v", row)
		}
		if row[6] != "0" {
			t.Errorf("violations: %v", row)
		}
	}
}

// TestClaimE3E4 asserts Figures 1 and 2 on the split+liar workload: with a
// local coin the expected rounds rise with n and lie above the common coin's
// from n=7 on; with a common coin they do not depend on n.
func TestClaimE3E4(t *testing.T) {
	local, common := claimRows(t, E3LocalCoinRounds), claimRows(t, E4CommonCoinRounds)
	if len(local) != len(common) {
		t.Fatalf("E3 has %d sizes, E4 %d", len(local), len(common))
	}
	for i := range local {
		n := cell(t, local[i][0])
		l, c := cell(t, local[i][3]), cell(t, common[i][3])
		if i > 0 && l <= cell(t, local[i-1][3]) {
			t.Errorf("E3 n=%v: split+liar rounds %v do not rise above n=%s's %s", n, l, local[i-1][0], local[i-1][3])
		}
		if n >= 7 && l <= c {
			t.Errorf("n=%v: local-coin rounds %v not above common-coin rounds %v", n, l, c)
		}
		if c != cell(t, common[0][3]) {
			t.Errorf("E4 n=%v: split+liar rounds %v differ from n=%s's %s", n, c, common[0][0], common[0][3])
		}
	}
}

// TestClaimA1 asserts ablation A1: turning validation off under the liar
// adversary leaves fewer runs ok and costs more messages.
func TestClaimA1(t *testing.T) {
	rows := claimRows(t, A1Validation)
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
	rows := claimRows(t, A2Gadget)
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
	rows := claimRows(t, A4Broadcast)
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

package experiments

import (
	"strconv"
	"strings"
	"testing"
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
			if tbl.NumRows() == 0 {
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

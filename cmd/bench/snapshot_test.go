package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchSeedSnapshot holds `bench exp -quick -json` to the committed
// BENCH_seed.json. Every column of every experiment table is a pure function
// of the code — except E11's retained-heap, peak-heap and allocs columns,
// which are runtime telemetry and are masked on both sides. It is the only
// pin on the schedules behind E10 and E16.
func TestBenchSeedSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick experiment suite")
	}
	want, err := os.ReadFile("../../BENCH_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	g, w := maskE11Runtime(t, []byte(mustRun(t, "exp", "-quick", "-json"))), maskE11Runtime(t, want)
	if !bytes.Equal(g, w) {
		gl, wl := strings.Split(string(g), "\n"), strings.Split(string(w), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("bench exp -quick -json diverged from BENCH_seed.json at masked line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("bench exp -quick -json diverged from BENCH_seed.json: %d vs %d masked lines", len(gl), len(wl))
	}
}

// maskE11Runtime blanks the last three columns of every E11 row and
// re-encodes the snapshot canonically.
func maskE11Runtime(t *testing.T, raw []byte) []byte {
	t.Helper()
	var tables []struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Table   string     `json:"table"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &tables); err != nil {
		t.Fatalf("parsing snapshot: %v", err)
	}
	masked := false
	for _, tbl := range tables {
		if tbl.ID != "E11" {
			continue
		}
		if h := tbl.Headers; len(h) < 3 || strings.Join(h[len(h)-3:], ",") != "retained heap,peak heap,allocs" {
			t.Fatalf("E11's runtime columns moved: headers %v", h)
		}
		for _, row := range tbl.Rows {
			for i := len(row) - 3; i < len(row); i++ {
				row[i] = "masked"
			}
			masked = true
		}
	}
	if !masked {
		t.Fatal("snapshot has no E11 rows to mask")
	}
	out, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

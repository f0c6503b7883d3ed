// Package metrics aggregates experiment measurements and renders them as the
// aligned text tables and CSV that cmd/bench and EXPERIMENTS.md use.
// It is deliberately dependency-free statistics with one mechanism each:
// Online, a Welford accumulator of count, mean, variance and extremes, and
// Hist, a log2 histogram whose quantiles merge exactly.
package metrics

import (
	"fmt"
	"strings"
)

// Table renders experiment results as an aligned text table (for terminals
// and EXPERIMENTS.md) or CSV (for plotting). Rows hold formatted cells;
// formatting helpers keep numeric output consistent across experiments.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of cells. Cells beyond the header width are kept;
// short rows are padded when rendering.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row where each cell is formatted from the corresponding
// value: ints and process counts as %d, float64 as %.2f, everything else via
// %v.
func (t *Table) AddRowf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.2f", x)
		case string:
			cells[i] = x
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(cells...)
}

// Rows returns a copy of the data rows (for machine-readable output).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// Render returns the aligned text form.
func (t *Table) Render() string {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	rule := make([]string, cols)
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV returns the comma-separated form (headers first). Cells containing
// commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

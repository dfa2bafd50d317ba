package stats

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table with a title, used by the
// experiment harness to print paper-style result tables.
type Table struct {
	Title   string
	Header  []string
	rows    [][]string
	Caption string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render produces the aligned text form.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first). Cells are
// quoted when they contain commas or quotes.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// AsciiSeries renders an (x, y) series as a bar chart with one row per
// point — the harness's stand-in for the paper's figures. Width is the bar
// budget in characters.
func AsciiSeries(title string, xs []float64, ys []float64, xLabel, yLabel string, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(xs) == 0 || len(xs) != len(ys) {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if width <= 0 {
		width = 50
	}
	maxY := ys[0]
	for _, y := range ys {
		if y > maxY {
			maxY = y
		}
	}
	fmt.Fprintf(&b, "%10s  %-*s %s\n", xLabel, width, yLabel, "")
	for i := range xs {
		bars := 0
		if maxY > 0 {
			bars = int(ys[i] / maxY * float64(width))
		}
		fmt.Fprintf(&b, "%10.3g  %-*s %.4g\n", xs[i], width, strings.Repeat("█", bars), ys[i])
	}
	return b.String()
}

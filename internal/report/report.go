// Package report renders the experiment tables and data series
// cmd/quakerepro and the other commands produce: fixed-width text
// tables (mirroring the paper's figures) and CSV for plotting.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table in CSV form (header row first). Cells containing
// commas or quotes are quoted.
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(strconv.Quote(c))
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown writes the table as a GitHub-flavored Markdown table, with
// the title as a bold caption line.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("**")
		b.WriteString(t.Title)
		b.WriteString("**\n\n")
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	b.WriteString("|")
	for range t.Headers {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Int formats an integer with thousands separators, the way the paper's
// tables print flop and word counts.
func Int(v int64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	s := strconv.FormatInt(v, 10)
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// F formats a float with the given number of decimals.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// SI formats a value with an SI suffix (n, µ, m, "", K, M, G) chosen by
// magnitude, with three significant digits — handy for times and rates.
func SI(v float64, unit string) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	type scale struct {
		factor float64
		prefix string
	}
	scales := []scale{
		{1e9, "G"}, {1e6, "M"}, {1e3, "K"}, {1, ""},
		{1e-3, "m"}, {1e-6, "µ"}, {1e-9, "n"},
	}
	if abs == 0 {
		return "0 " + unit
	}
	for _, s := range scales {
		if abs >= s.factor {
			return fmt.Sprintf("%.3g %s%s", v/s.factor, s.prefix, unit)
		}
	}
	return fmt.Sprintf("%.3g n%s", v/1e-9, unit)
}
